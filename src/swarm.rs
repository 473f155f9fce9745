//! Shared plumbing for the `node` and `swarm` binaries and the
//! loopback host tests.
//!
//! A swarm run is "the paper's experiment, but real": dozens–hundreds
//! of OS processes, each wrapping the identical `Protocol` state
//! machine the simulator drives, exchanging enveloped `Message` bytes
//! over localhost UDP through a seeded lossy proxy. Its one input is a
//! [`Capsule`], the file `campaign --export-job` writes and `replay`
//! reads, so one file runs in both drivers. This module holds
//! everything both sides must agree on:
//!
//! * [`check_capsule`] — what of a capsule the swarm can run: its
//!   scenario tags, after refusing what the proxy cannot express.
//! * [`status`] — a node's self-check against its deployment: final
//!   image identity and authenticated-only buffering, the sim checker's
//!   invariants.
//! * [`NodeReport`] / [`CONTROL_QUIT`] — the line-oriented control
//!   protocol between node processes and the swarm harness.
//! * [`LossyLinks`] — the proxy's seeded loss model: the capsule's
//!   topology, application-layer loss and link faults (through the
//!   simulator's own [`LinkFaults`]), plus duplicate/reorder ppm.

use lrs_bench::capsules::ScenarioTags;
use lrs_bench::cli::{Cli, CliError};
use lrs_bench::with_scheme;
use lrs_crypto::sha256::sha256;
use lrs_deluge::deployment::{Deployment, Node, SchemeFamily};
use lrs_host::node::{NodeId, Protocol as _};
use lrs_host::time::SimTime;
use lrs_netsim::capsule::Capsule;
use lrs_netsim::fault::{FaultEvent, LinkFaults, PPM_ONE};
use lrs_netsim::noise::NoiseModel;
use lrs_rng::DetRng;
use std::collections::HashMap;

/// The scenario tags of a capsule the swarm can run. The proxy
/// interprets link faults, the topology's PRRs and i.i.d.
/// application-layer loss; anything else the capsule asks for is
/// refused here, naming the item, before any process is spawned.
pub fn check_capsule(capsule: &Capsule) -> Result<ScenarioTags, String> {
    // A node fault would need the process itself killed or restarted.
    let node_fault = capsule.faults.events().iter().find(|event| {
        matches!(
            event,
            FaultEvent::Crash { .. } | FaultEvent::Reboot { .. } | FaultEvent::ClockDrift { .. }
        )
    });
    if let Some(event) = node_fault {
        return Err(format!(
            "the proxy cannot express node fault {}",
            event.to_json()
        ));
    }
    if let NoiseModel::Bursty(_) = capsule.config.medium.noise {
        return Err("the proxy cannot express the capsule's bursty noise model".to_string());
    }
    let tags = ScenarioTags::decode(capsule)?;
    if tags.attack_plan.is_some() {
        return Err("the proxy cannot express the attack_plan tag's adversaries".to_string());
    }
    with_scheme!(tags.scheme.as_str(), S => ())?;
    Ok(tags)
}

/// The largest `--time-scale`: a host's virtual clock, wall µs times
/// the scale, stays inside a `u64` for half a year of wall time.
const MAX_TIME_SCALE: u64 = 1_000_000;

/// `--time-scale` as both bins read it: virtual µs per wall µs,
/// default 10. 0 is refused (virtual time would never advance), and so
/// is a scale past `MAX_TIME_SCALE`.
pub fn time_scale(cli: &Cli) -> Result<u64, CliError> {
    match cli.parsed_or::<u64>("--time-scale", 10)? {
        scale @ 1..=MAX_TIME_SCALE => Ok(scale),
        scale => Err(CliError::BadValue {
            flag: "--time-scale".to_string(),
            value: scale.to_string(),
            reason: format!("need 1..={MAX_TIME_SCALE}"),
        }),
    }
}

/// The wall-clock run limit of `capsule` at `time_scale`: its virtual
/// deadline, scaled.
pub fn wall_deadline(capsule: &Capsule, time_scale: u64) -> std::time::Duration {
    std::time::Duration::from_micros(capsule.deadline.as_micros() / time_scale)
}

/// Self-check of `node` against its `deployment`: completion, the sim
/// checker's per-node invariants (buffered content must be
/// authenticated content, a complete node's image is the origin image),
/// and the hex digest of the reassembled image when complete.
pub fn status<S: SchemeFamily>(deployment: &Deployment<S>, node: &Node<S>) -> NodeStatus {
    let scheme = node.scheme();
    NodeStatus {
        complete: node.is_complete(),
        invariants_ok: deployment.verify(scheme).is_ok(),
        digest: scheme.image().map(|img| sha256(&img).to_hex()),
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

/// The proxy's seeded loss model, read from a [`Capsule`].
///
/// A frame from `from` goes out along `from`'s links in the capsule's
/// topology only. Each link keeps it with probability `prr × (1 −
/// app_loss) × overlay`, where the overlay is what the capsule's link
/// faults (`Degrade`, `LinkDown`/`LinkUp`) leave in force, interpreted
/// by the simulator's own [`LinkFaults`]; a downed link draws nothing.
/// A kept frame is then duplicated and reordered with the harness's
/// own ppm. On `star:N` (a clique with PRR 1) this is a uniform drop
/// composed with per-link degradation.
pub struct LossyLinks {
    /// Per node, its out-links in topology order, each with the share
    /// of frames it keeps before faults, in ppm.
    out: Vec<Vec<(NodeId, u32)>>,
    dup_ppm: u32,
    reorder_ppm: u32,
    /// The capsule's fault schedule, sorted by time.
    faults: Vec<FaultEvent>,
    /// Index in `faults` of the first event not yet applied.
    next_fault: usize,
    link_faults: LinkFaults,
    rng: DetRng,
}

impl LossyLinks {
    /// Builds the model for `capsule`, seeded from its seed. Fault
    /// events are applied as [`advance`](Self::advance) passes their
    /// timestamps (virtual time, like the simulator).
    pub fn new(capsule: &Capsule, dup_ppm: u32, reorder_ppm: u32) -> Self {
        let app_keep = 1.0 - capsule.config.medium.app_loss;
        let out = (0..capsule.topology.len() as u32)
            .map(|from| {
                capsule
                    .topology
                    .links_from(NodeId(from))
                    .iter()
                    .map(|link| {
                        let keep = (link.prr * app_keep * f64::from(PPM_ONE)).round();
                        (link.to, keep as u32)
                    })
                    .collect()
            })
            .collect();
        LossyLinks {
            out,
            dup_ppm,
            reorder_ppm,
            faults: capsule.faults.events().to_vec(),
            next_fault: 0,
            link_faults: LinkFaults::default(),
            rng: DetRng::seed_from_u64(capsule.seed ^ 0x4C52_5357_4C4F_5353),
        }
    }

    /// Applies every fault event with timestamp ≤ `now`.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(&event) = self.faults.get(self.next_fault) {
            if event.at() > now {
                break;
            }
            self.link_faults.apply(event);
            self.next_fault += 1;
        }
    }

    /// Rolls the dice for one frame from `from`: `deliver` gets one
    /// verdict per out-link, in topology order. An id outside the
    /// topology (the envelope is wire input) has no links.
    pub fn fan_out(&mut self, from: NodeId, mut deliver: impl FnMut(NodeId, Delivery)) {
        let Some(links) = self.out.get(from.index()) else {
            return;
        };
        let mut roll = |ppm: u32| self.rng.gen_range(0..u64::from(PPM_ONE)) < u64::from(ppm);
        for &(to, keep) in links {
            let scale = self.link_faults.keep_ppm(from, to);
            let kept = scale.is_some_and(|scale| {
                roll((u64::from(keep) * u64::from(scale) / u64::from(PPM_ONE)) as u32)
            });
            let verdict = if kept {
                Delivery {
                    copies: if roll(self.dup_ppm) { 2 } else { 1 },
                    reorder: roll(self.reorder_ppm),
                }
            } else {
                Delivery {
                    copies: 0,
                    reorder: false,
                }
            };
            deliver(to, verdict);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_bench::capsules::{profile_deployment, profile_image, LrScheme, SelugeScheme};
    use lrs_host::time::Duration;
    use lrs_netsim::fault::FaultPlan;
    use lrs_netsim::medium::MediumConfig;
    use lrs_netsim::noise::BurstyNoise;
    use lrs_netsim::sim::SimConfig;
    use lrs_netsim::topology::Topology;

    /// A fault-free `star:nodes` capsule at `app_loss`, tagged for a
    /// `campaign`-profile LR-Seluge run of `image_len` bytes.
    fn capsule(nodes: usize, app_loss: f64, image_len: usize, seed: u64) -> Capsule {
        Capsule {
            seed,
            deadline: Duration::from_secs(1800),
            config: SimConfig {
                medium: MediumConfig {
                    app_loss,
                    ..MediumConfig::default()
                },
                stall_window: None,
            },
            topology: Topology::star(nodes),
            faults: FaultPlan::new(),
            scenario: ScenarioTags::new("lr-seluge", "campaign", image_len, "swarm test").pairs(),
            digest: None,
        }
    }

    /// The one verdict `links` rolls for a frame `from → to`.
    fn verdict(links: &mut LossyLinks, from: u32, to: u32) -> Delivery {
        let mut found = None;
        links.fan_out(NodeId(from), |dest, verdict| {
            if dest == NodeId(to) {
                found = Some(verdict);
            }
        });
        found.expect("a link of the topology")
    }

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
        let mut links = LossyLinks::new(&capsule(2, 0.1, 512, 42), 300_000, 300_000);
        let mut relay = ReorderRelay::new();
        let mut granted: u64 = 0;
        let mut sent: u64 = 0;
        let mut dup_reorder = 0u64;
        for i in 0u32..10_000 {
            let verdict = verdict(&mut links, 0, 1);
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
        let mut capsule = capsule(4, 0.0, 512, 1);
        capsule.faults.push(FaultEvent::LinkDown {
            from: NodeId(0),
            to: NodeId(1),
            at: SimTime(5),
        });
        capsule
            .faults
            .degrade(NodeId(2), NodeId(3), 0, SimTime::ZERO);
        let mut links = LossyLinks::new(&capsule, 0, 0);
        links.advance(SimTime::ZERO);
        // Degraded-to-zero link never delivers; the down event is still
        // in the future, so 0→1 delivers.
        assert_eq!(verdict(&mut links, 2, 3).copies, 0);
        assert_eq!(verdict(&mut links, 0, 1).copies, 1);
        links.advance(SimTime(5));
        assert_eq!(verdict(&mut links, 0, 1).copies, 0);
        // Asymmetric: the reverse direction is untouched.
        assert_eq!(verdict(&mut links, 1, 0).copies, 1);
    }

    #[test]
    fn lossy_links_drop_rate_is_plausible() {
        let mut links = LossyLinks::new(&capsule(2, 0.1, 512, 7), 0, 0);
        let delivered = (0..10_000)
            .filter(|_| verdict(&mut links, 0, 1).copies > 0)
            .count();
        // 10% drop ±2% over 10k rolls.
        assert!((8_800..=9_200).contains(&delivered), "{delivered}");
    }

    #[test]
    fn lossy_links_fan_out_along_the_topology_only() {
        // A line 0 - 1 - 2 with PRR 0.5: node 1 reaches both ends,
        // node 0 only node 1, and each link keeps about half.
        let mut capsule = capsule(3, 0.0, 512, 3);
        capsule.topology = Topology::line(3, 0.5);
        let mut links = LossyLinks::new(&capsule, 0, 0);
        let mut heard = [[0u32; 3]; 3];
        for _ in 0..4_000 {
            for from in 0..3 {
                links.fan_out(NodeId(from), |to, verdict| {
                    heard[from as usize][to.index()] += u32::from(verdict.copies);
                });
            }
        }
        assert_eq!([heard[0][2], heard[2][0]], [0, 0], "no link, no frame");
        for (from, to) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            let n = heard[from][to];
            assert!((1_800..=2_200).contains(&n), "{from}→{to}: {n}");
        }
        // A sender outside the topology reaches nobody.
        links.fan_out(NodeId(9), |to, _| panic!("n9 reached {to:?}"));
    }

    #[test]
    fn scenario_is_deterministic_across_reconstructions() {
        let capsule = capsule(16, 0.05, 512, 9);
        let tags = check_capsule(&capsule).expect("a swarm capsule");
        assert_eq!(check_capsule(&capsule), Ok(tags.clone()));
        let image = profile_image(&tags.profile, tags.image_len).expect("image");
        assert_eq!(image, profile_image(&tags.profile, tags.image_len).unwrap());
        // Both schemes build the same image's deployment from the tags,
        // and a fresh node of either passes its self-check.
        let lr = profile_deployment::<LrScheme>(&tags.profile, tags.image_len, &tags.key_context)
            .expect("lr");
        let seluge =
            profile_deployment::<SelugeScheme>(&tags.profile, tags.image_len, &tags.key_context)
                .expect("seluge");
        assert_eq!(lr.image(), image.as_slice());
        assert_eq!(seluge.image(), image.as_slice());
        let base = status(&lr, &lr.node(NodeId(0), NodeId(0)));
        assert!(base.complete && base.invariants_ok);
        assert_eq!(base.digest, Some(sha256(&image).to_hex()));
        let fresh = status(&seluge, &seluge.node(NodeId(1), NodeId(0)));
        assert_eq!((fresh.complete, fresh.digest), (false, None));
    }

    #[test]
    fn unbuildable_images_are_errors_for_both_schemes() {
        // Empty, and past the u16 item space (at 23 069 728 bytes,
        // 65 539 pages of 352, LR-Seluge's count used to wrap to 3 and
        // the base station signed a 1 056-byte image). The capsule check
        // passes them; building the node's deployment refuses them.
        for image_len in [0, 30_000_000] {
            let tags = check_capsule(&capsule(4, 0.0, image_len, 9)).expect("tags decode");
            let (profile, keys) = (&tags.profile, &tags.key_context);
            for err in [
                profile_deployment::<LrScheme>(profile, image_len, keys).map(|_| ()),
                profile_deployment::<SelugeScheme>(profile, image_len, keys).map(|_| ()),
            ] {
                let err = err.expect_err("must not build");
                assert!(err.starts_with("deployment: "), "{err}");
            }
        }
    }

    #[test]
    fn capsule_check_refuses_what_the_proxy_cannot_express() {
        let at = SimTime(1_000);
        let node = NodeId(3);
        let with_fault = |event: FaultEvent| {
            let mut capsule = capsule(4, 0.05, 512, 1);
            capsule.faults.push(event);
            capsule
        };
        let mut noisy = capsule(4, 0.05, 512, 1);
        noisy.config.medium.noise = NoiseModel::Bursty(BurstyNoise::heavy());
        let attacked = Capsule {
            scenario: ScenarioTags::new("lr-seluge", "campaign", 512, "swarm test")
                .with_storm(NodeId(3))
                .pairs(),
            ..capsule(4, 0.05, 512, 1)
        };
        for (capsule, needle) in [
            (with_fault(FaultEvent::Crash { node, at }), "fault_crash"),
            (with_fault(FaultEvent::Reboot { node, at }), "fault_reboot"),
            (
                with_fault(FaultEvent::ClockDrift {
                    node,
                    ppm: 1_100_000,
                    at,
                }),
                "fault_drift",
            ),
            (noisy, "noise model"),
            (attacked, "attack_plan"),
        ] {
            let err = check_capsule(&capsule).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        }
        // Link faults are the proxy's to interpret.
        let degraded = with_fault(FaultEvent::Degrade {
            from: NodeId(1),
            to: node,
            ppm: 500_000,
            at,
        });
        assert!(check_capsule(&degraded).is_ok());
    }

    #[test]
    fn time_scale_defaults_to_10_and_refuses_0_and_overflow() {
        const FLAGS: &[lrs_bench::cli::Flag] = &[lrs_bench::cli::valued("--time-scale", "")];
        let scale = |args: &[&str]| {
            Cli::parse_from("test", FLAGS, args.iter().map(|s| s.to_string()))
                .and_then(|cli| time_scale(&cli))
        };
        assert_eq!(scale(&[]), Ok(10));
        assert_eq!(scale(&["--time-scale", "50"]), Ok(50));
        for bad in ["0", "1000001"] {
            let err = scale(&["--time-scale", bad]).unwrap_err().to_string();
            assert_eq!(err, format!("bad --time-scale \"{bad}\": need 1..=1000000"));
        }
        let capsule = capsule(2, 0.0, 512, 1);
        assert_eq!(
            wall_deadline(&capsule, 10),
            std::time::Duration::from_secs(180)
        );
    }
}
