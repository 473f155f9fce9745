//! Adversarial node behaviours for the attack-resilience experiments.
//!
//! The paper's threat model (§III) includes an adversary that injects
//! bogus code-image packets (to corrupt images or exhaust
//! receiver buffers/energy), floods forged signature packets (to force
//! expensive verifications), forges control traffic, and — as a
//! compromised insider — mounts the *denial-of-receipt* attack of §IV-E
//! by repeatedly SNACKing a victim with an all-ones bit vector.

mod plan;

pub use plan::{AttackConfig, AttackEntry, AttackPlan, AttackVector};

use crate::wire::{BitVec, Frame, Message};
use lrs_crypto::cluster::ClusterKey;
use lrs_host::node::{Context, NodeId, PacketKind, Protocol, TimerId};
use lrs_host::time::{Duration, SimTime};

/// The item a denial-of-receipt attacker requests (the first code page
/// under LR-Seluge's item numbering), the choice every denial-of-receipt
/// run has made, so plan-driven runs reproduce it.
pub const DOR_ITEM: u16 = 2;

/// An attacking node: one [`AttackEntry`] mounted against one scheme.
#[derive(Debug)]
pub struct Attacker {
    /// What to inject, from when, how fast and under which duty cycle.
    entry: AttackEntry,
    /// The constants of the scheme under attack; its cluster key is
    /// kept only for insider vectors.
    profile: AttackerProfile,
    /// Highest level overheard from honest advertisements.
    observed_level: u16,
    /// Packets injected.
    pub injected: u64,
}

/// Scheme-specific constants an [`AttackEntry`] needs to become a live
/// [`Attacker`]: the entry itself stores only scheme-agnostic placement
/// and timing, so the same plan drives every scheme family.
#[derive(Clone, Debug)]
pub struct AttackerProfile {
    /// Data-payload length to mimic in bogus packets.
    pub payload_len: usize,
    /// Packet index space bogus data draws from.
    pub index_space: u16,
    /// Signature body length forged signatures mimic.
    pub sig_body_len: usize,
    /// SNACK bit-vector width (the item's packet count).
    pub n_bits: usize,
    /// Image version the attacker claims.
    pub version: u16,
    /// Cluster key, granted to insider vectors when present.
    pub cluster_key: Option<ClusterKey>,
}

const TIMER_INJECT: TimerId = TimerId(9);

impl Attacker {
    /// Builds the attacker `entry` describes, using `profile`'s scheme
    /// constants. Insider vectors keep the cluster key when the profile
    /// carries one and outsider vectors never do; an entry demanding
    /// insider power without a key degrades to an outsider, whose
    /// denial-of-receipt SNACKs cannot carry the cluster MAC and inject
    /// nothing — the graceful outcome, not a panic. A zero spoof pool is
    /// clamped to one identity.
    pub fn new(mut entry: AttackEntry, mut profile: AttackerProfile) -> Self {
        entry.spoof_pool = entry.spoof_pool.max(1);
        if !entry.vector.requires_insider() {
            profile.cluster_key = None;
        }
        Attacker {
            entry,
            profile,
            observed_level: 0,
            injected: 0,
        }
    }

    /// Whether the duty cycle allows injecting at `now`: injection
    /// happens only during the on-phase of each `(on, off)` cycle.
    /// Bursty interference stresses loss recovery harder than the same
    /// packet budget spread evenly.
    fn burst_active(&self, now: SimTime) -> bool {
        match self.entry.burst {
            None => true,
            Some((on, off)) => {
                let cycle = (on.as_micros() + off.as_micros()).max(1);
                now.as_micros() % cycle < on.as_micros()
            }
        }
    }

    fn forge(&self, ctx: &mut Context<'_>) -> Option<(PacketKind, Vec<u8>)> {
        let (entry, p) = (&self.entry, &self.profile);
        match entry.vector {
            AttackVector::BogusData => {
                let payload: Vec<u8> = (0..p.payload_len).map(|_| ctx.rng().gen()).collect();
                let index = ctx.rng().gen_range(0..p.index_space);
                let msg = Message::Data {
                    version: p.version,
                    item: self.observed_level,
                    index,
                    payload,
                };
                Some((PacketKind::Data, msg.to_bytes()))
            }
            AttackVector::ForgedSignature => {
                let body: Vec<u8> = (0..p.sig_body_len).map(|_| ctx.rng().gen()).collect();
                let msg = Message::Data {
                    version: p.version,
                    item: 0,
                    index: 0,
                    payload: body,
                };
                Some((PacketKind::Signature, msg.to_bytes()))
            }
            AttackVector::ForgedAdv => {
                // No cluster key: fabricate a MAC-less advertisement (a
                // random tag) claiming a huge level.
                let fake_key = ClusterKey::derive(b"attacker guess", ctx.rng().gen());
                let msg = Message::adv(&fake_key, ctx.id, p.version, u16::MAX);
                Some((PacketKind::Adv, msg.to_bytes()))
            }
            AttackVector::DenialOfReceipt => {
                let key = p.cluster_key.as_ref()?;
                let msg = Message::snack(
                    key,
                    ctx.id,
                    entry.target,
                    p.version,
                    DOR_ITEM,
                    BitVec::ones(p.n_bits),
                );
                Some((PacketKind::Snack, msg.to_bytes()))
            }
            AttackVector::SpoofedDenialOfReceipt => {
                let key = p.cluster_key.as_ref()?;
                // Rotate through forged sender ids; the cluster-key MAC
                // still verifies because the insider holds the key.
                let spoofed = NodeId(self.injected as u32 % entry.spoof_pool);
                let msg = Message::snack(
                    key,
                    spoofed,
                    entry.target,
                    p.version,
                    DOR_ITEM,
                    BitVec::ones(p.n_bits),
                );
                Some((PacketKind::Snack, msg.to_bytes()))
            }
        }
    }
}

impl Protocol for Attacker {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        // The first injection comes one period after the entry's start
        // time, so honest traffic exists even for `at = 0`.
        let wait = self.entry.at.saturating_since(ctx.now).as_micros();
        let delay = wait.saturating_add(self.entry.interval.as_micros());
        ctx.set_timer(TIMER_INJECT, Duration::from_micros(delay));
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _from: NodeId, data: &[u8]) {
        // Track victim progress so bogus data targets the current item.
        if let Some(Frame::Adv { level, .. }) = Frame::parse(data) {
            if level != u16::MAX {
                self.observed_level = self.observed_level.max(level);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
        if timer != TIMER_INJECT {
            return;
        }
        if self.burst_active(ctx.now) {
            if let Some((kind, bytes)) = self.forge(ctx) {
                ctx.broadcast(kind, bytes);
                self.injected += 1;
            }
        }
        ctx.set_timer(TIMER_INJECT, self.entry.interval);
    }

    fn is_complete(&self) -> bool {
        // Attackers never gate run completion.
        true
    }
}

/// Wrapper that lets a simulation mix honest nodes and attackers.
pub enum MaybeAdversary<P> {
    /// An honest protocol node.
    Honest(P),
    /// An attacker.
    Attacker(Attacker),
}

impl<P> MaybeAdversary<P> {
    /// The honest node inside, if any.
    pub fn honest(&self) -> Option<&P> {
        match self {
            MaybeAdversary::Honest(p) => Some(p),
            MaybeAdversary::Attacker(_) => None,
        }
    }

    /// The attacker inside, if any.
    pub fn attacker(&self) -> Option<&Attacker> {
        match self {
            MaybeAdversary::Honest(_) => None,
            MaybeAdversary::Attacker(a) => Some(a),
        }
    }
}

impl<P: Protocol> Protocol for MaybeAdversary<P> {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        match self {
            MaybeAdversary::Honest(p) => p.on_init(ctx),
            MaybeAdversary::Attacker(a) => a.on_init(ctx),
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, from: NodeId, data: &[u8]) {
        match self {
            MaybeAdversary::Honest(p) => p.on_packet(ctx, from, data),
            MaybeAdversary::Attacker(a) => a.on_packet(ctx, from, data),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerId) {
        match self {
            MaybeAdversary::Honest(p) => p.on_timer(ctx, timer),
            MaybeAdversary::Attacker(a) => a.on_timer(ctx, timer),
        }
    }
    fn is_complete(&self) -> bool {
        match self {
            MaybeAdversary::Honest(p) => p.is_complete(),
            MaybeAdversary::Attacker(a) => a.is_complete(),
        }
    }
    fn on_reboot(&mut self, ctx: &mut Context<'_>) {
        match self {
            MaybeAdversary::Honest(p) => p.on_reboot(ctx),
            MaybeAdversary::Attacker(a) => a.on_reboot(ctx),
        }
    }
    fn progress(&self) -> u64 {
        match self {
            MaybeAdversary::Honest(p) => p.progress(),
            MaybeAdversary::Attacker(a) => a.progress(),
        }
    }
    fn diagnostic(&self) -> String {
        match self {
            MaybeAdversary::Honest(p) => p.diagnostic(),
            MaybeAdversary::Attacker(a) => a.diagnostic(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_host::node::Action;
    use lrs_rng::DetRng;

    fn profile(key: Option<ClusterKey>) -> AttackerProfile {
        AttackerProfile {
            payload_len: 48,
            index_space: 24,
            sig_body_len: 64,
            n_bits: 24,
            version: 1,
            cluster_key: key,
        }
    }

    fn entry(vector: AttackVector) -> AttackEntry {
        AttackEntry {
            node: NodeId(7),
            vector,
            at: SimTime(0),
            interval: Duration::from_millis(250),
            burst: None,
            target: NodeId(3),
            spoof_pool: 0,
        }
    }

    /// Runs `a` alone until `until` — its own timer is the only event
    /// source — and returns how many packets it broadcast.
    fn injections_until(a: &mut Attacker, until: SimTime) -> usize {
        let mut rng = DetRng::seed_from_u64(1);
        let mut actions = Vec::new();
        let (mut now, mut init, mut sent) = (SimTime::ZERO, true, 0);
        while now <= until {
            let mut ctx = Context::new(now, a.entry.node, &mut rng, &mut actions, 0, 0);
            if std::mem::take(&mut init) {
                a.on_init(&mut ctx);
            } else {
                a.on_timer(&mut ctx, TIMER_INJECT);
            }
            for action in actions.drain(..) {
                match action {
                    Action::Broadcast { .. } => sent += 1,
                    Action::SetTimer { delay, .. } => now += delay,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        sent
    }

    #[test]
    fn outsider_cannot_mount_denial_of_receipt() {
        let mut a = Attacker::new(entry(AttackVector::DenialOfReceipt), profile(None));
        // forge() needs the cluster key; without it nothing is produced.
        assert!(a.profile.cluster_key.is_none());
        assert_eq!(injections_until(&mut a, SimTime(10_000_000)), 0);
        assert_eq!(a.injected, 0);
    }

    #[test]
    fn burst_duty_cycle_gates_injection() {
        let mut e = entry(AttackVector::ForgedAdv);
        e.burst = Some((Duration::from_secs(1), Duration::from_secs(3)));
        let a = Attacker::new(e, profile(None));
        assert!(a.burst_active(SimTime(0)));
        assert!(a.burst_active(SimTime(999_999)));
        assert!(!a.burst_active(SimTime(1_000_000)));
        assert!(!a.burst_active(SimTime(3_999_999)));
        assert!(a.burst_active(SimTime(4_000_000)));
        // No duty cycle: always active.
        let b = Attacker::new(entry(AttackVector::ForgedAdv), profile(None));
        assert!(b.burst_active(SimTime(123_456_789)));
    }

    #[test]
    fn plan_entry_builds_matching_kind_and_burst() {
        let mut e = entry(AttackVector::BogusData);
        e.burst = Some((Duration::from_secs(2), Duration::from_secs(5)));
        let a = Attacker::new(e, profile(None));
        assert_eq!(a.entry.vector, AttackVector::BogusData);
        assert_eq!((a.profile.payload_len, a.profile.index_space), (48, 24));
        assert_eq!(
            a.entry.burst,
            Some((Duration::from_secs(2), Duration::from_secs(5)))
        );
        assert_eq!(a.entry.interval, Duration::from_millis(250));
        assert!(a.profile.cluster_key.is_none());

        let a = Attacker::new(entry(AttackVector::ForgedSignature), profile(None));
        assert_eq!(a.entry.vector, AttackVector::ForgedSignature);
        assert_eq!(a.profile.sig_body_len, 64);
    }

    #[test]
    fn insider_vectors_take_the_key_and_outsiders_never_do() {
        let key = ClusterKey::derive(b"test", 0);
        let a = Attacker::new(
            entry(AttackVector::DenialOfReceipt),
            profile(Some(key.clone())),
        );
        assert!(a.profile.cluster_key.is_some());
        assert_eq!(a.entry.vector, AttackVector::DenialOfReceipt);
        assert_eq!((a.entry.target, a.profile.n_bits), (NodeId(3), 24));
        // Outsider vectors never receive the key, even when available.
        let a = Attacker::new(entry(AttackVector::ForgedAdv), profile(Some(key)));
        assert!(a.profile.cluster_key.is_none());
        // A keyless profile degrades insider vectors to outsiders.
        let a = Attacker::new(entry(AttackVector::SpoofedDenialOfReceipt), profile(None));
        assert!(a.profile.cluster_key.is_none());
        // A zero spoof pool is clamped so the modulus never divides by 0.
        assert_eq!(a.entry.spoof_pool, 1);
    }

    #[test]
    fn entry_start_time_delays_the_first_injection() {
        let mut e = entry(AttackVector::BogusData);
        e.at = SimTime::ZERO + Duration::from_secs(60);
        let mut a = Attacker::new(e, profile(None));
        assert_eq!(injections_until(&mut a, e.at), 0, "silent until `at`");
        // 60.25 s, 60.5 s, 60.75 s and 61 s.
        let mut a = Attacker::new(e, profile(None));
        assert_eq!(injections_until(&mut a, e.at + Duration::from_secs(1)), 4);
        // `at = 0` keeps the historical schedule: one packet per period
        // from one period in.
        let mut a = Attacker::new(entry(AttackVector::BogusData), profile(None));
        assert_eq!(injections_until(&mut a, SimTime(1_000_000)), 4);
    }

    #[test]
    fn wrapper_dispatch() {
        let a = Attacker::new(entry(AttackVector::ForgedAdv), profile(None));
        let w: MaybeAdversary<Attacker> = MaybeAdversary::Attacker(a);
        assert!(w.attacker().is_some());
        assert!(w.honest().is_none());
        assert!(w.is_complete());
    }
}
