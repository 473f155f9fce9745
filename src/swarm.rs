//! Shared plumbing for the `node` and `swarm` binaries and the
//! loopback host tests.
//!
//! A swarm run is "the paper's experiment, but real": dozens–hundreds
//! of OS processes, each wrapping the identical `Protocol` state
//! machine the simulator drives, exchanging enveloped `Message` bytes
//! over localhost UDP through a seeded lossy proxy. This module holds
//! everything both sides must agree on:
//!
//! * [`SwarmScenario`] — the deterministic recipe (parameter profile,
//!   image length, key context, seed) from which every process
//!   independently reconstructs the same keys, artifacts, and expected
//!   image, exactly as the capsule registry does for sim replays.
//! * [`SwarmNode`] — a protocol node of any scheme family plus its
//!   deployment, to self-check the sim's invariants (final image
//!   identity, authenticated-only buffering) at the end of a run.
//! * [`NodeReport`] / [`CONTROL_QUIT`] — the line-oriented control
//!   protocol between node processes and the swarm harness.
//! * [`LossyLinks`] — the proxy's seeded loss model: uniform
//!   drop/duplicate/reorder ppm composed with per-directed-link
//!   asymmetry expressed in the simulator's `FaultPlan` vocabulary
//!   (`Degrade`/`LinkDown`/`LinkUp`).

use lrs_bench::capsules::{profile_deployment, profile_image};
use lrs_bench::Matched;
use lrs_crypto::sha256::sha256;
use lrs_deluge::deployment::{Deployment, Node, SchemeFamily};
use lrs_host::node::{Context, NodeId, Protocol, TimerId};
use lrs_host::time::SimTime;
use lrs_netsim::fault::{FaultEvent, FaultPlan, PPM_ONE};
use lrs_rng::DetRng;
use std::collections::HashMap;

/// The deterministic recipe every process reconstructs its world from.
///
/// Mirrors the capsule registry's scenario tags: the same (profile,
/// image_len, key_context) triple produces bit-identical keys,
/// artifacts, and images here and in sim replays, through the same
/// registry (`lrs_bench::capsules`). The scheme is a type parameter of
/// [`build_node`](Self::build_node), not data.
#[derive(Clone, Debug)]
pub struct SwarmScenario {
    /// Parameter profile from the capsule registry ("chaos", "scale",
    /// "campaign").
    pub profile: String,
    /// Image length in bytes.
    pub image_len: usize,
    /// Key-derivation context string.
    pub key_context: String,
    /// Seed for host RNG streams and the proxy loss model.
    pub seed: u64,
}

impl SwarmScenario {
    /// The image being disseminated.
    pub fn image(&self) -> Result<Vec<u8>, String> {
        profile_image(&self.profile, self.image_len)
    }

    /// Hex SHA-256 of the image — what every completed node must hold.
    pub fn expected_digest(&self) -> Result<String, String> {
        Ok(sha256(&self.image()?).to_hex())
    }

    /// Builds scheme family `S`'s protocol node for `id` (node 0 is the
    /// base station).
    pub fn build_node<S: Matched>(&self, id: NodeId) -> Result<SwarmNode<S>, String> {
        let deployment = profile_deployment::<S>(&self.profile, self.image_len, &self.key_context)?;
        Ok(SwarmNode {
            node: deployment.node(id, NodeId(0)),
            deployment,
        })
    }
}

/// A protocol node bundled with its deployment, the origin against
/// which the sim checker's invariants are re-run locally.
pub struct SwarmNode<S: SchemeFamily> {
    node: Node<S>,
    deployment: Deployment<S>,
}

impl<S: SchemeFamily> SwarmNode<S> {
    /// Self-check: completion, the sim checker's per-node invariants
    /// (buffered content must be authenticated content, a complete
    /// node's image is the origin image), and the hex digest of the
    /// reassembled image when complete.
    pub fn status(&self) -> NodeStatus {
        let scheme = self.node.scheme();
        NodeStatus {
            complete: self.node.is_complete(),
            invariants_ok: self.deployment.verify(scheme).is_ok(),
            digest: scheme.image().map(|img| sha256(&img).to_hex()),
        }
    }
}

impl<S: SchemeFamily> Protocol for SwarmNode<S> {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        self.node.on_init(ctx)
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, from: NodeId, data: &[u8]) {
        self.node.on_packet(ctx, from, data)
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
        self.node.on_timer(ctx, timer)
    }

    fn is_complete(&self) -> bool {
        self.node.is_complete()
    }

    fn on_reboot(&mut self, ctx: &mut Context<'_>) {
        self.node.on_reboot(ctx)
    }

    fn progress(&self) -> u64 {
        self.node.progress()
    }

    fn diagnostic(&self) -> String {
        self.node.diagnostic()
    }
}

/// Result of a node's self-check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeStatus {
    /// Whether dissemination finished.
    pub complete: bool,
    /// Whether the sim checker's invariants hold.
    pub invariants_ok: bool,
    /// Hex SHA-256 of the reassembled image, once complete.
    pub digest: Option<String>,
}

/// Datagram the harness sends to stop a node process.
pub const CONTROL_QUIT: &[u8] = b"lrs-swarm quit";

/// One status line a node process reports to the harness's control
/// socket. Line-oriented `key=value` text so a torn or foreign datagram
/// parses to `None` rather than corrupting the harness state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeReport {
    /// Reporting node.
    pub id: u32,
    /// Whether dissemination finished.
    pub complete: bool,
    /// Whether the sim checker's invariants hold.
    pub invariants_ok: bool,
    /// Hex image digest when complete.
    pub digest: Option<String>,
    /// Frames handed to the transport.
    pub tx_frames: u64,
    /// Frames delivered to the protocol.
    pub rx_frames: u64,
    /// Datagrams rejected at the envelope.
    pub rx_rejected: u64,
}

impl NodeReport {
    /// Serializes to one control-protocol line.
    pub fn encode(&self) -> String {
        format!(
            "lrs-swarm report id={} complete={} invariants={} digest={} tx={} rx={} rejected={}",
            self.id,
            u8::from(self.complete),
            u8::from(self.invariants_ok),
            self.digest.as_deref().unwrap_or("-"),
            self.tx_frames,
            self.rx_frames,
            self.rx_rejected,
        )
    }

    /// Parses a control-protocol line; `None` for anything malformed.
    ///
    /// Strict by design — this reads datagrams off an open UDP socket:
    /// duplicate keys are rejected (a line that says `complete=1
    /// complete=0` is corrupt, not "last wins"), and a non-`-` digest
    /// must be exactly the 64 lowercase hex characters `sha256::to_hex`
    /// emits.
    pub fn parse(line: &str) -> Option<NodeReport> {
        let rest = line.strip_prefix("lrs-swarm report ")?;
        let mut fields = HashMap::new();
        for part in rest.split_whitespace() {
            let (k, v) = part.split_once('=')?;
            if fields.insert(k, v).is_some() {
                return None;
            }
        }
        let flag = |k: &str| -> Option<bool> {
            match *fields.get(k)? {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            }
        };
        Some(NodeReport {
            id: fields.get("id")?.parse().ok()?,
            complete: flag("complete")?,
            invariants_ok: flag("invariants")?,
            digest: match *fields.get("digest")? {
                "-" => None,
                hex if hex.len() == 64
                    && hex
                        .bytes()
                        .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()) =>
                {
                    Some(hex.to_string())
                }
                _ => return None,
            },
            tx_frames: fields.get("tx")?.parse().ok()?,
            rx_frames: fields.get("rx")?.parse().ok()?,
            rx_rejected: fields.get("rejected")?.parse().ok()?,
        })
    }
}

/// What the proxy does with one packet on one directed link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Copies to forward (0 = dropped, 2 = duplicated).
    pub copies: u8,
    /// Whether to hold this packet briefly so it overtakes nothing —
    /// i.e., deliver it out of order.
    pub reorder: bool,
}

/// The proxy's frame-forwarding discipline: applies a [`Delivery`]
/// verdict to one datagram toward one destination, implementing
/// reordering as "hold at most one frame per destination until a later
/// frame passes it".
///
/// Extracted from the `swarm` binary's socket loop so the delivery
/// arithmetic is unit-testable. The invariant the proxy must keep is
/// **conservation**: every copy the verdict grants is eventually put on
/// the wire (possibly out of order), none invented, none discarded. In
/// particular a frame that rolls duplicate *and* reorder holds one copy
/// back and forwards the other immediately — the pair itself arrives
/// out of order, which is exactly what that verdict means.
#[derive(Default)]
pub struct ReorderRelay {
    /// At most one held-back frame per destination.
    held: HashMap<u32, Vec<u8>>,
}

impl ReorderRelay {
    /// An empty relay (nothing held).
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `delivery` to `datagram`, invoking `send` once per frame
    /// to put on the wire now, in wire order. Returns how many frames
    /// were sent immediately (held frames are sent by a later `apply`
    /// or by [`flush`](ReorderRelay::flush)).
    pub fn apply(
        &mut self,
        dest: u32,
        datagram: &[u8],
        delivery: Delivery,
        mut send: impl FnMut(&[u8]),
    ) -> u32 {
        let Delivery { copies, reorder } = delivery;
        if copies == 0 {
            return 0;
        }
        let mut now = u32::from(copies);
        let holds = reorder && !self.held.contains_key(&dest);
        if holds {
            // Hold one copy back; any remaining copies (a duplicate
            // that also rolled reorder) still go out immediately.
            self.held.insert(dest, datagram.to_vec());
            now -= 1;
        }
        for _ in 0..now {
            send(datagram);
        }
        // A frame just passed this destination: release any earlier
        // frame held for it, now out of order. If this call held (the
        // slot was empty before), there is nothing earlier to release —
        // that copy waits for the *next* passer or the idle flush.
        if now > 0 && !holds {
            if let Some(earlier) = self.held.remove(&dest) {
                send(&earlier);
                return now + 1;
            }
        }
        now
    }

    /// Releases every held frame (the proxy's idle tick), so reordering
    /// can only delay a frame briefly, never strand it. Returns the
    /// number of frames released.
    pub fn flush(&mut self, mut send: impl FnMut(u32, &[u8])) -> u32 {
        let mut released = 0;
        for (dest, frame) in self.held.drain() {
            send(dest, &frame);
            released += 1;
        }
        released
    }

    /// Number of destinations with a frame currently held back.
    pub fn held_frames(&self) -> usize {
        self.held.len()
    }
}

/// The proxy's seeded loss model.
///
/// Composes three processes per directed link, mirroring the
/// simulator's vocabulary:
///
/// 1. uniform i.i.d. drop/duplicate/reorder ppm (the paper's `p` knob),
/// 2. `FaultPlan::degrade(from, to, ppm, at)` — from `at` onward the
///    link keeps only `ppm`/1e6 of deliveries (one direction only ⇒
///    asymmetric link),
/// 3. `FaultPlan::link_down` / `link_up` outages.
///
/// Node-side events in the plan (crash, reboot, clock drift) are not a
/// proxy concern and are ignored.
pub struct LossyLinks {
    drop_ppm: u32,
    dup_ppm: u32,
    reorder_ppm: u32,
    /// Remaining plan events, soonest last (popped as time passes).
    pending: Vec<FaultEvent>,
    /// Per-directed-link delivery scale (absent = [`PPM_ONE`]).
    degrade: HashMap<(u32, u32), u32>,
    /// Per-directed-link outage flag.
    down: HashMap<(u32, u32), bool>,
    rng: DetRng,
}

impl LossyLinks {
    /// Builds the model. `plan` events are applied as [`advance`]
    /// passes their timestamps (virtual time, like the simulator).
    ///
    /// [`advance`]: LossyLinks::advance
    pub fn new(drop_ppm: u32, dup_ppm: u32, reorder_ppm: u32, plan: &FaultPlan, seed: u64) -> Self {
        assert!(drop_ppm < PPM_ONE, "drop_ppm must leave some deliveries");
        let mut pending = plan.events().to_vec();
        // events() is sorted soonest-first; pop from the back.
        pending.reverse();
        LossyLinks {
            drop_ppm,
            dup_ppm,
            reorder_ppm,
            pending,
            degrade: HashMap::new(),
            down: HashMap::new(),
            rng: DetRng::seed_from_u64(seed ^ 0x4C52_5357_4C4F_5353),
        }
    }

    /// Applies every plan event with timestamp ≤ `now`.
    pub fn advance(&mut self, now: SimTime) {
        while self.pending.last().is_some_and(|event| event.at() <= now) {
            let Some(event) = self.pending.pop() else {
                break;
            };
            match event {
                FaultEvent::LinkDown { from, to, .. } => {
                    self.down.insert((from.0, to.0), true);
                }
                FaultEvent::LinkUp { from, to, .. } => {
                    self.down.insert((from.0, to.0), false);
                }
                FaultEvent::Degrade { from, to, ppm, .. } => {
                    self.degrade.insert((from.0, to.0), ppm);
                }
                // Node-side faults are not the proxy's job.
                FaultEvent::Crash { .. }
                | FaultEvent::Reboot { .. }
                | FaultEvent::ClockDrift { .. } => {}
            }
        }
    }

    /// Rolls the dice for one packet on the directed link `from → to`.
    pub fn verdict(&mut self, from: NodeId, to: NodeId) -> Delivery {
        if self.down.get(&(from.0, to.0)).copied().unwrap_or(false) {
            return Delivery {
                copies: 0,
                reorder: false,
            };
        }
        let scale = self
            .degrade
            .get(&(from.0, to.0))
            .copied()
            .unwrap_or(PPM_ONE);
        // Survive the uniform drop AND the link's degradation scale.
        let keep_ppm = ((PPM_ONE - self.drop_ppm) as u64 * scale as u64 / PPM_ONE as u64) as u32;
        if self.rng.gen_range(0..u64::from(PPM_ONE)) >= u64::from(keep_ppm) {
            return Delivery {
                copies: 0,
                reorder: false,
            };
        }
        let copies = if self.rng.gen_range(0..u64::from(PPM_ONE)) < u64::from(self.dup_ppm) {
            2
        } else {
            1
        };
        let reorder = self.rng.gen_range(0..u64::from(PPM_ONE)) < u64::from(self.reorder_ppm);
        Delivery { copies, reorder }
    }
}

/// A seeded plan degrading a fraction of directed links from time zero
/// — the swarm's default per-link asymmetry. Each ordered pair `(i, j)`
/// is independently selected with probability `link_frac_ppm`/1e6 and,
/// if selected, keeps only `keep_ppm`/1e6 of its deliveries; the
/// reverse direction is rolled separately, so most degraded links are
/// asymmetric, exactly like the simulator's degrade vocabulary.
pub fn asymmetry_plan(nodes: u32, link_frac_ppm: u32, keep_ppm: u32, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let mut rng = DetRng::seed_from_u64(seed ^ 0x4153_594D_504C_414E);
    for i in 0..nodes {
        for j in 0..nodes {
            if i != j && rng.gen_range(0..u64::from(PPM_ONE)) < u64::from(link_frac_ppm) {
                plan.degrade(NodeId(i), NodeId(j), keep_ppm, SimTime::ZERO);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_bench::capsules::{LrScheme, SelugeScheme};

    #[test]
    fn report_round_trips() {
        let digest = sha256(b"image").to_hex();
        for digest in [None, Some(digest)] {
            let report = NodeReport {
                id: 17,
                complete: digest.is_some(),
                invariants_ok: true,
                digest: digest.clone(),
                tx_frames: 40,
                rx_frames: 40,
                rx_rejected: 2,
            };
            assert_eq!(NodeReport::parse(&report.encode()), Some(report));
        }
        assert_eq!(NodeReport::parse("lrs-swarm quit"), None);
        assert_eq!(NodeReport::parse("garbage"), None);
        assert_eq!(NodeReport::parse("lrs-swarm report id=x"), None);
    }

    #[test]
    fn report_parse_rejects_duplicate_keys_and_bad_digests() {
        let digest = sha256(b"image").to_hex();
        let line = |d: &str| {
            format!("lrs-swarm report id=1 complete=1 invariants=1 digest={d} tx=4 rx=4 rejected=0")
        };
        assert!(NodeReport::parse(&line(&digest)).is_some());
        // Malformed digests: wrong length, non-hex, uppercase.
        for bad in ["ab12", "zz", &digest[..63], &digest.to_uppercase()] {
            assert_eq!(NodeReport::parse(&line(bad)), None, "digest {bad:?}");
        }
        // Duplicate keys are corruption, not last-wins.
        let dup = format!("{} complete=0", line("-"));
        assert_eq!(NodeReport::parse(&dup), None);
        // A benign line with every key exactly once still parses.
        assert!(NodeReport::parse(&line("-")).is_some());
    }

    #[test]
    fn relay_delivers_the_duplicate_of_a_reordered_frame() {
        // The regression this pins: copies == 2 AND reorder on the same
        // frame used to discard the duplicate (the held-frame branch
        // returned before the copies loop ran). One copy must go out
        // immediately, the second when the next frame passes.
        let mut relay = ReorderRelay::new();
        let mut wire: Vec<Vec<u8>> = Vec::new();
        let sent = relay.apply(
            5,
            b"first",
            Delivery {
                copies: 2,
                reorder: true,
            },
            |f| wire.push(f.to_vec()),
        );
        assert_eq!(sent, 1, "one copy forwarded immediately");
        assert_eq!(relay.held_frames(), 1, "the other copy is held");
        assert_eq!(wire, vec![b"first".to_vec()]);
        // A later frame passes: it goes first, then the held copy.
        relay.apply(
            5,
            b"second",
            Delivery {
                copies: 1,
                reorder: false,
            },
            |f| wire.push(f.to_vec()),
        );
        assert_eq!(
            wire,
            vec![b"first".to_vec(), b"second".to_vec(), b"first".to_vec()],
            "duplicate delivered out of order, not discarded"
        );
        assert_eq!(relay.held_frames(), 0);
    }

    #[test]
    fn relay_conserves_frames_under_a_seeded_dup_reorder_storm() {
        // Conservation over the real verdict stream: every copy the
        // loss model grants reaches the wire, none invented. Rates are
        // cranked so dup+reorder coincidences are common.
        let mut links = LossyLinks::new(100_000, 300_000, 300_000, &FaultPlan::new(), 42);
        let mut relay = ReorderRelay::new();
        let mut granted: u64 = 0;
        let mut sent: u64 = 0;
        let mut dup_reorder = 0u64;
        for i in 0u32..10_000 {
            let verdict = links.verdict(NodeId(0), NodeId(1));
            if verdict.copies == 2 && verdict.reorder {
                dup_reorder += 1;
            }
            granted += u64::from(verdict.copies);
            sent += u64::from(relay.apply(1, &i.to_le_bytes(), verdict, |_| {}));
        }
        sent += u64::from(relay.flush(|_, _| {}));
        assert_eq!(sent, granted, "wire count must equal granted copies");
        // Pin the seeded stream so the scenario can't silently vanish:
        // seed 42 at these rates produces exactly these counts.
        assert_eq!(granted, 11_594);
        assert_eq!(dup_reorder, 759, "dup+reorder coincidences exercised");
    }

    #[test]
    fn lossy_links_honor_down_and_degrade() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent::LinkDown {
            from: NodeId(0),
            to: NodeId(1),
            at: SimTime(5),
        });
        plan.degrade(NodeId(2), NodeId(3), 0, SimTime::ZERO);
        let mut links = LossyLinks::new(0, 0, 0, &plan, 1);
        links.advance(SimTime::ZERO);
        // Degraded-to-zero link never delivers; the down event is still
        // in the future, so 0→1 delivers.
        assert_eq!(links.verdict(NodeId(2), NodeId(3)).copies, 0);
        assert_eq!(links.verdict(NodeId(0), NodeId(1)).copies, 1);
        links.advance(SimTime(5));
        assert_eq!(links.verdict(NodeId(0), NodeId(1)).copies, 0);
        // Asymmetric: the reverse direction is untouched.
        assert_eq!(links.verdict(NodeId(1), NodeId(0)).copies, 1);
    }

    #[test]
    fn lossy_links_drop_rate_is_plausible() {
        let mut links = LossyLinks::new(100_000, 0, 0, &FaultPlan::new(), 7);
        let delivered = (0..10_000)
            .filter(|_| links.verdict(NodeId(0), NodeId(1)).copies > 0)
            .count();
        // 10% drop ±2% over 10k rolls.
        assert!((8_800..=9_200).contains(&delivered), "{delivered}");
    }

    #[test]
    fn scenario_is_deterministic_across_reconstructions() {
        let scenario = SwarmScenario {
            profile: "campaign".into(),
            image_len: 512,
            key_context: "swarm test".into(),
            seed: 9,
        };
        let a = scenario.expected_digest().expect("digest");
        let b = scenario.expected_digest().expect("digest");
        assert_eq!(a, b);
        // Both schemes construct nodes for the same scenario.
        assert!(scenario.build_node::<LrScheme>(NodeId(0)).is_ok());
        assert!(scenario.build_node::<SelugeScheme>(NodeId(1)).is_ok());
    }

    #[test]
    fn unbuildable_images_are_errors_for_both_schemes() {
        // Empty, and past the u16 item space (at 23 069 728 bytes,
        // 65 539 pages of 352, LR-Seluge's count used to wrap to 3 and
        // the base station signed a 1 056-byte image).
        for image_len in [0, 30_000_000] {
            let scenario = SwarmScenario {
                profile: "campaign".into(),
                image_len,
                key_context: "swarm test".into(),
                seed: 9,
            };
            for err in [
                scenario.build_node::<LrScheme>(NodeId(0)).err(),
                scenario.build_node::<SelugeScheme>(NodeId(0)).err(),
            ] {
                let err = err.expect("must not build");
                assert!(err.starts_with("deployment: "), "{err}");
            }
        }
    }

    #[test]
    fn asymmetry_plan_is_seeded_and_directional() {
        let a = asymmetry_plan(16, 100_000, 500_000, 3);
        let b = asymmetry_plan(16, 100_000, 500_000, 3);
        assert_eq!(a.events().len(), b.events().len());
        assert!(!a.events().is_empty(), "some links degraded");
        // Expect roughly 10% of 240 directed links.
        assert!(a.events().len() < 60);
    }
}
