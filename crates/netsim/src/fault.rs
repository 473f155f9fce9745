//! Composable, deterministic fault injection.
//!
//! A [`FaultPlan`] is a time-sorted schedule of [`FaultEvent`]s applied
//! by the [`Simulator`](crate::sim::Simulator) as virtual time passes:
//! node crashes and reboots (RAM state is lost; protocols recover what
//! their flash model retains), link churn (links flap down and up with
//! configurable sojourn times), asymmetric per-direction degradation,
//! and per-node clock drift. [`LinkFaults`] is the one interpreter of
//! the link-scoped events, for the simulator and the swarm's UDP proxy
//! alike.
//!
//! Plans are either hand-built through the push helpers or generated
//! from a [`FaultConfig`] with [`FaultPlan::generate`], which draws
//! every decision from its own `DetRng` stream. The fault layer never
//! touches the medium's or the nodes' RNGs, so an *empty* plan leaves a
//! run bit-identical to one with no fault layer at all, and any plan is
//! reproducible from `(config, topology, seed)`.
//!
//! Every event serializes to a single JSON object in the same shape as
//! a [`TraceEvent`](crate::trace::TraceEvent) line; a plan travels as
//! those lines inside a [`Capsule`](crate::capsule::Capsule). Replaying
//! a parsed plan reproduces the original run exactly;
//! `tests/properties.rs` pins this.

use crate::topology::Topology;
use lrs_host::node::NodeId;
use lrs_host::time::{Duration, SimTime};
use lrs_json::{Json, ObjWriter};
use lrs_rng::DetRng;
use std::collections::HashMap;

/// Parts-per-million fixed point: the identity scale factor.
pub const PPM_ONE: u32 = 1_000_000;

/// The widest clock-drift deviation from [`PPM_ONE`] a plan may carry,
/// in ppm: what a campaign `drift=` token generates at most, and what a
/// loaded event must respect (a rate of 0 collapses every timer delay
/// to 0, so virtual time would never advance).
pub const MAX_DRIFT_PPM: u32 = 500_000;

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Node halts: no transmission, reception, or timer activity.
    Crash {
        /// The crashing node.
        node: NodeId,
        /// Crash time.
        at: SimTime,
    },
    /// A crashed node restarts. Its RAM state is lost; the protocol's
    /// reboot hook decides what the flash model restores.
    Reboot {
        /// The restarting node.
        node: NodeId,
        /// Restart time.
        at: SimTime,
    },
    /// The directed link `from → to` stops delivering entirely.
    LinkDown {
        /// Transmitter side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
        /// Outage start.
        at: SimTime,
    },
    /// The directed link `from → to` recovers (degradation, if any,
    /// still applies).
    LinkUp {
        /// Transmitter side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
        /// Recovery time.
        at: SimTime,
    },
    /// The directed link `from → to` keeps only `ppm`/1e6 of its
    /// deliveries from now on. Applying it to one direction only models
    /// an asymmetric link.
    Degrade {
        /// Transmitter side.
        from: NodeId,
        /// Receiver side.
        to: NodeId,
        /// Delivery scale factor in parts per million ([`PPM_ONE`] = no
        /// degradation).
        ppm: u32,
        /// When the degradation starts.
        at: SimTime,
    },
    /// The node's local clock runs at `ppm`/1e6 of nominal speed from
    /// now on: every timer it arms is stretched (ppm > 1e6) or
    /// compressed (ppm < 1e6) by that factor.
    ClockDrift {
        /// The drifting node.
        node: NodeId,
        /// Clock rate in parts per million of nominal ([`PPM_ONE`] =
        /// perfect clock).
        ppm: u32,
        /// When the drift takes effect.
        at: SimTime,
    },
}

impl FaultEvent {
    /// The event's scheduled time.
    pub fn at(&self) -> SimTime {
        match *self {
            FaultEvent::Crash { at, .. }
            | FaultEvent::Reboot { at, .. }
            | FaultEvent::LinkDown { at, .. }
            | FaultEvent::LinkUp { at, .. }
            | FaultEvent::Degrade { at, .. }
            | FaultEvent::ClockDrift { at, .. } => at,
        }
    }

    /// Every node the event names, as `[transmitter, receiver]` for
    /// link-scoped faults and the faulted node twice for node-scoped
    /// ones.
    pub fn nodes(&self) -> [NodeId; 2] {
        match *self {
            FaultEvent::Crash { node, .. }
            | FaultEvent::Reboot { node, .. }
            | FaultEvent::ClockDrift { node, .. } => [node, node],
            FaultEvent::LinkDown { from, to, .. }
            | FaultEvent::LinkUp { from, to, .. }
            | FaultEvent::Degrade { from, to, .. } => [from, to],
        }
    }

    /// Renders the event as one JSON object in trace-event shape
    /// (`"t"` in microseconds of virtual time).
    pub fn to_json(&self) -> String {
        let line = |ev: &str| {
            ObjWriter::new()
                .uint("t", self.at().as_micros())
                .str("ev", ev)
        };
        let link =
            |ev: &str, from: NodeId, to: NodeId| line(ev).uint("from", from.0).uint("to", to.0);
        match *self {
            FaultEvent::Crash { node, .. } => line("fault_crash").uint("node", node.0),
            FaultEvent::Reboot { node, .. } => line("fault_reboot").uint("node", node.0),
            FaultEvent::LinkDown { from, to, .. } => link("fault_link_down", from, to),
            FaultEvent::LinkUp { from, to, .. } => link("fault_link_up", from, to),
            FaultEvent::Degrade { from, to, ppm, .. } => {
                link("fault_degrade", from, to).uint("ppm", ppm)
            }
            FaultEvent::ClockDrift { node, ppm, .. } => {
                line("fault_drift").uint("node", node.0).uint("ppm", ppm)
            }
        }
        .finish()
    }

    /// Reads one event from a parsed [`to_json`](Self::to_json) line;
    /// the error names the field that is missing, mistyped or out of
    /// range.
    pub(crate) fn from_value(line: &Json) -> Result<Self, String> {
        let at = SimTime(line.uint_at("t")?);
        let node = |key: &str| line.uint_at(key).map(NodeId);
        Ok(match line.str_at("ev")? {
            "fault_crash" => FaultEvent::Crash {
                node: node("node")?,
                at,
            },
            "fault_reboot" => FaultEvent::Reboot {
                node: node("node")?,
                at,
            },
            "fault_link_down" => FaultEvent::LinkDown {
                from: node("from")?,
                to: node("to")?,
                at,
            },
            "fault_link_up" => FaultEvent::LinkUp {
                from: node("from")?,
                to: node("to")?,
                at,
            },
            "fault_degrade" => FaultEvent::Degrade {
                from: node("from")?,
                to: node("to")?,
                ppm: line.uint_at("ppm")?,
                at,
            },
            "fault_drift" => {
                let ppm: u32 = line.uint_at("ppm")?;
                if ppm.abs_diff(PPM_ONE) > MAX_DRIFT_PPM {
                    return Err(format!(
                        "clock rate {ppm} ppm is outside {PPM_ONE} ± {MAX_DRIFT_PPM}"
                    ));
                }
                FaultEvent::ClockDrift {
                    node: node("node")?,
                    ppm,
                    at,
                }
            }
            other => return Err(format!("unknown fault event {other:?}")),
        })
    }
}

/// Knobs for [`FaultPlan::generate`]. Rates are per-horizon
/// probabilities; all sampling is driven by the seed passed to
/// `generate`, never by wall-clock state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that each eligible node crashes once in the horizon.
    pub crash_rate: f64,
    /// Downtime range for crashed nodes; `None` makes crashes permanent.
    pub reboot_after: Option<(Duration, Duration)>,
    /// Fraction of directed links that flap down/up for the whole horizon.
    pub link_flap_rate: f64,
    /// Mean outage length of a flapping link.
    pub down_sojourn: Duration,
    /// Mean healthy stretch of a flapping link.
    pub up_sojourn: Duration,
    /// Fraction of directed links that are permanently degraded
    /// (asymmetric: each direction is drawn independently).
    pub degrade_rate: f64,
    /// Degradation factor range in ppm (applied per delivery).
    pub degrade_ppm: (u32, u32),
    /// Maximum absolute clock-drift deviation in ppm; each node draws a
    /// rate uniformly from `[PPM_ONE - d, PPM_ONE + d]` at time zero.
    pub drift_ppm: u32,
    /// Time window faults are scheduled within.
    pub horizon: Duration,
    /// Node ids below this never crash (protects the base station).
    pub protect_first: u32,
}

impl Default for FaultConfig {
    /// A quiet config: no faults, one protected base node, a one-hour
    /// horizon.
    fn default() -> Self {
        FaultConfig {
            crash_rate: 0.0,
            reboot_after: None,
            link_flap_rate: 0.0,
            down_sojourn: Duration::from_secs(30),
            up_sojourn: Duration::from_secs(120),
            degrade_rate: 0.0,
            degrade_ppm: (300_000, 800_000),
            drift_ppm: 0,
            horizon: Duration::from_secs(3600),
            protect_first: 1,
        }
    }
}

/// A deterministic, time-sorted fault schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends one event (kept sorted by time, stable for ties).
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.events.sort_by_key(FaultEvent::at);
    }

    /// Schedules a permanent crash.
    pub fn crash(&mut self, node: NodeId, at: SimTime) {
        self.push(FaultEvent::Crash { node, at });
    }

    /// Schedules a crash followed by a reboot after `downtime`.
    pub fn crash_and_reboot(&mut self, node: NodeId, at: SimTime, downtime: Duration) {
        self.push(FaultEvent::Crash { node, at });
        self.push(FaultEvent::Reboot {
            node,
            at: at + downtime,
        });
    }

    /// Schedules a directed-link outage over `[at, at + outage)`.
    pub fn link_outage(&mut self, from: NodeId, to: NodeId, at: SimTime, outage: Duration) {
        self.push(FaultEvent::LinkDown { from, to, at });
        self.push(FaultEvent::LinkUp {
            from,
            to,
            at: at + outage,
        });
    }

    /// Schedules a permanent directed-link degradation.
    pub fn degrade(&mut self, from: NodeId, to: NodeId, ppm: u32, at: SimTime) {
        self.push(FaultEvent::Degrade { from, to, ppm, at });
    }

    /// Sets a node's clock rate from `at` onward.
    pub fn clock_drift(&mut self, node: NodeId, ppm: u32, at: SimTime) {
        self.push(FaultEvent::ClockDrift { node, ppm, at });
    }

    /// The scheduled events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a schedule from `config` for `topology`, drawing every
    /// decision from a `DetRng` seeded with `seed`. Same inputs, same
    /// plan — byte for byte.
    pub fn generate(config: &FaultConfig, topology: &Topology, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed ^ 0x00FA_B17F_A017_u64);
        let mut plan = FaultPlan::new();
        let horizon_us = config.horizon.as_micros().max(1);

        // Node crashes (optionally followed by reboots).
        for i in config.protect_first..topology.len() as u32 {
            if config.crash_rate > 0.0 && rng.gen_bool(config.crash_rate) {
                let at = SimTime(rng.gen_range(0..horizon_us));
                match config.reboot_after {
                    Some((lo, hi)) => {
                        let down = sample_range_us(&mut rng, lo, hi);
                        plan.crash_and_reboot(NodeId(i), at, Duration::from_micros(down));
                    }
                    None => plan.crash(NodeId(i), at),
                }
            }
        }

        // Per-node clock drift, fixed at time zero.
        if config.drift_ppm > 0 {
            for i in 0..topology.len() as u32 {
                let d = rng.gen_range(0..=2 * config.drift_ppm as u64) as u32;
                let ppm = PPM_ONE - config.drift_ppm + d;
                if ppm != PPM_ONE {
                    plan.clock_drift(NodeId(i), ppm, SimTime::ZERO);
                }
            }
        }

        // Link churn and degradation over every directed link.
        for from in 0..topology.len() as u32 {
            for link in topology.links_from(NodeId(from)) {
                let to = link.to;
                if config.degrade_rate > 0.0 && rng.gen_bool(config.degrade_rate) {
                    let (lo, hi) = config.degrade_ppm;
                    let ppm = rng.gen_range(u64::from(lo)..=u64::from(hi.max(lo))) as u32;
                    plan.degrade(NodeId(from), to, ppm, SimTime::ZERO);
                }
                if config.link_flap_rate > 0.0 && rng.gen_bool(config.link_flap_rate) {
                    // Alternate up/down sojourns across the horizon;
                    // sojourns are uniform in [mean/2, 3·mean/2].
                    let mut t = sample_sojourn_us(&mut rng, config.up_sojourn);
                    while t < horizon_us {
                        let down = sample_sojourn_us(&mut rng, config.down_sojourn);
                        plan.link_outage(NodeId(from), to, SimTime(t), Duration::from_micros(down));
                        t += down + sample_sojourn_us(&mut rng, config.up_sojourn);
                    }
                }
            }
        }
        plan
    }
}

/// Fault overlay on one directed link.
#[derive(Clone, Copy, Debug)]
struct LinkFault {
    up: bool,
    ppm: u32,
}

impl Default for LinkFault {
    fn default() -> Self {
        LinkFault {
            up: true,
            ppm: PPM_ONE,
        }
    }
}

/// The state the link-scoped events of a plan leave behind: the one
/// interpreter of `LinkDown`, `LinkUp` and `Degrade`, shared by the
/// simulator and the swarm's UDP proxy. Each applies events as their
/// time passes and asks [`keep_ppm`](Self::keep_ppm) per delivery.
#[derive(Clone, Debug, Default)]
pub struct LinkFaults {
    /// Overlay per directed link `(from, to)`; absent = untouched.
    links: HashMap<(u32, u32), LinkFault>,
}

impl LinkFaults {
    /// Applies `event` if it is link-scoped. Node-scoped events
    /// (crash, reboot, clock drift) are not a link's business and
    /// change nothing here.
    pub fn apply(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::LinkDown { from, to, .. } => self.link(from, to).up = false,
            FaultEvent::LinkUp { from, to, .. } => self.link(from, to).up = true,
            FaultEvent::Degrade { from, to, ppm, .. } => self.link(from, to).ppm = ppm,
            FaultEvent::Crash { .. }
            | FaultEvent::Reboot { .. }
            | FaultEvent::ClockDrift { .. } => {}
        }
    }

    fn link(&mut self, from: NodeId, to: NodeId) -> &mut LinkFault {
        self.links.entry((from.0, to.0)).or_default()
    }

    /// `None` when the directed link `from → to` is down, else the
    /// share of its deliveries the faults let through, in ppm
    /// ([`PPM_ONE`] when nothing degrades it). One map lookup.
    #[inline]
    pub fn keep_ppm(&self, from: NodeId, to: NodeId) -> Option<u32> {
        match self.links.get(&(from.0, to.0)) {
            Some(f) if !f.up => None,
            Some(f) => Some(f.ppm),
            None => Some(PPM_ONE),
        }
    }
}

/// Uniform draw from `[lo, hi]` in microseconds (handles `hi < lo`).
fn sample_range_us(rng: &mut DetRng, lo: Duration, hi: Duration) -> u64 {
    let (a, b) = (lo.as_micros(), hi.as_micros().max(lo.as_micros()));
    rng.gen_range(a..=b)
}

/// Sojourn draw: uniform in `[mean/2, 3·mean/2]`, floor 1 µs.
fn sample_sojourn_us(rng: &mut DetRng, mean: Duration) -> u64 {
    let m = mean.as_micros().max(2);
    rng.gen_range(m / 2..=m + m / 2).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_json::parse_json;

    fn parse(line: &str) -> Option<FaultEvent> {
        FaultEvent::from_value(&parse_json(line).ok()?).ok()
    }

    fn busy_config() -> FaultConfig {
        FaultConfig {
            crash_rate: 0.5,
            reboot_after: Some((Duration::from_secs(5), Duration::from_secs(50))),
            link_flap_rate: 0.4,
            degrade_rate: 0.3,
            drift_ppm: 50_000,
            horizon: Duration::from_secs(600),
            ..FaultConfig::default()
        }
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        let events = [
            FaultEvent::Crash {
                node: NodeId(3),
                at: SimTime(17),
            },
            FaultEvent::Reboot {
                node: NodeId(3),
                at: SimTime(1_000_017),
            },
            FaultEvent::LinkDown {
                from: NodeId(1),
                to: NodeId(2),
                at: SimTime(0),
            },
            FaultEvent::LinkUp {
                from: NodeId(1),
                to: NodeId(2),
                at: SimTime(99),
            },
            FaultEvent::Degrade {
                from: NodeId(4),
                to: NodeId(0),
                ppm: 420_000,
                at: SimTime(5),
            },
            FaultEvent::ClockDrift {
                node: NodeId(7),
                ppm: 1_030_000,
                at: SimTime::ZERO,
            },
        ];
        for event in events {
            let json = event.to_json();
            assert_eq!(parse(&json), Some(event), "{json}");
        }
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert_eq!(parse(r#"{"t":5,"ev":"tx","node":1}"#), None);
        assert_eq!(parse(r#"{"t":5,"ev":"fault_crash"}"#), None);
        assert_eq!(parse("not json"), None);
        // Ids and ppm are u32: 2^32 + 2 is out of range, not node 2.
        for line in [
            r#"{"t":5,"ev":"fault_crash","node":4294967298}"#,
            r#"{"t":5,"ev":"fault_link_up","from":1,"to":4294967298}"#,
            r#"{"t":5,"ev":"fault_drift","node":1,"ppm":4294967298}"#,
            r#"{"t":18446744073709551616,"ev":"fault_crash","node":1}"#,
            r#"{"t":5,"ev":"fault_crash","node":2 GARBAGE "node":1"#,
        ] {
            assert_eq!(parse(line), None, "{line}");
        }
        // The full u64 time range is exact.
        assert_eq!(
            parse(r#"{"t":18446744073709551615,"ev":"fault_crash","node":1}"#),
            Some(FaultEvent::Crash {
                node: NodeId(1),
                at: SimTime(u64::MAX)
            })
        );
    }

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let topo = Topology::grid(4, 10.0, 7);
        let cfg = busy_config();
        let a = FaultPlan::generate(&cfg, &topo, 42);
        let b = FaultPlan::generate(&cfg, &topo, 42);
        let c = FaultPlan::generate(&cfg, &topo, 43);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ for a busy config");
        assert!(!a.is_empty());
        assert!(a.events().windows(2).all(|w| w[0].at() <= w[1].at()));
    }

    #[test]
    fn generate_respects_protection_and_horizon() {
        let cfg = FaultConfig {
            crash_rate: 1.0,
            reboot_after: None,
            horizon: Duration::from_secs(100),
            protect_first: 2,
            ..FaultConfig::default()
        };
        let topo = Topology::star(6);
        let plan = FaultPlan::generate(&cfg, &topo, 9);
        let mut crashed: Vec<u32> = plan
            .events()
            .iter()
            .map(|e| match *e {
                FaultEvent::Crash { node, at } => {
                    assert!(at.as_micros() < 100_000_000);
                    node.0
                }
                ref other => panic!("unexpected event {other:?}"),
            })
            .collect();
        crashed.sort_unstable();
        assert_eq!(crashed, vec![2, 3, 4, 5]);
    }

    #[test]
    fn plan_jsonl_round_trip_is_exact() {
        // A plan's JSONL form is its lines inside a capsule.
        let topology = Topology::grid(3, 10.0, 1);
        let plan = FaultPlan::generate(&busy_config(), &topology, 5);
        let capsule = crate::capsule::Capsule {
            seed: 5,
            deadline: Duration::from_secs(600),
            config: crate::sim::SimConfig::default(),
            topology,
            faults: plan.clone(),
            scenario: Vec::new(),
            digest: None,
        };
        let text = capsule.to_jsonl();
        let parsed = crate::capsule::Capsule::from_jsonl(&text).expect("parse");
        assert_eq!(parsed.faults, plan);
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn link_faults_track_outages_and_degradation_per_direction() {
        let (a, b) = (NodeId(1), NodeId(2));
        let mut links = LinkFaults::default();
        assert_eq!(links.keep_ppm(a, b), Some(PPM_ONE));
        links.apply(FaultEvent::Degrade {
            from: a,
            to: b,
            ppm: 300_000,
            at: SimTime::ZERO,
        });
        links.apply(FaultEvent::LinkDown {
            from: a,
            to: b,
            at: SimTime(5),
        });
        assert_eq!(links.keep_ppm(a, b), None);
        // Asymmetric: the reverse direction is untouched.
        assert_eq!(links.keep_ppm(b, a), Some(PPM_ONE));
        // Recovery keeps the degradation; node faults change nothing.
        links.apply(FaultEvent::LinkUp {
            from: a,
            to: b,
            at: SimTime(9),
        });
        links.apply(FaultEvent::Crash {
            node: b,
            at: SimTime(9),
        });
        assert_eq!(links.keep_ppm(a, b), Some(300_000));
    }

    #[test]
    fn push_keeps_events_sorted() {
        let mut plan = FaultPlan::new();
        plan.crash(NodeId(1), SimTime(500));
        plan.crash_and_reboot(NodeId(2), SimTime(100), Duration::from_micros(50));
        let times: Vec<u64> = plan.events().iter().map(|e| e.at().as_micros()).collect();
        assert_eq!(times, vec![100, 150, 500]);
    }
}
