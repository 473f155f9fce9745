//! The shared broadcast medium.
//!
//! Models the radio behaviour that matters for dissemination protocols:
//!
//! * **Airtime** — a packet of `b` bytes occupies the channel for
//!   `overhead + b · us_per_byte` microseconds (defaults sized to a
//!   mica2-class 19.2 kbps CC1000 radio).
//! * **CSMA deferral** — a sender whose neighborhood is busy defers to the
//!   end of the ongoing transmission plus a random backoff.
//! * **Half-duplex** — a node transmitting during a packet's airtime
//!   cannot receive it.
//! * **Collisions** — a reception fails if any other in-range transmission
//!   overlaps it in time.
//! * **Losses** — per-link PRR (topology), optional bursty noise, and the
//!   paper's application-layer i.i.d. drop probability `p`.

use crate::noise::{NoiseModel, NoiseState};
use crate::topology::Topology;
use lrs_host::node::NodeId;
use lrs_host::time::{Duration, SimTime};
use lrs_rng::DetRng;
use std::collections::VecDeque;

/// Radio and loss-process parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MediumConfig {
    /// Microseconds of airtime per payload byte (19.2 kbps ≈ 416 µs/B).
    pub us_per_byte: u64,
    /// Fixed per-packet overhead in µs (preamble, MAC header).
    pub per_packet_overhead_us: u64,
    /// Maximum random CSMA backoff in µs (uniform in [0, max]).
    pub max_backoff_us: u64,
    /// Whether carrier sensing defers transmissions.
    pub csma: bool,
    /// Whether overlapping in-range transmissions destroy receptions.
    pub collisions: bool,
    /// Application-layer drop probability `p` (the paper's loss knob).
    pub app_loss: f64,
    /// Environmental noise model.
    pub noise: NoiseModel,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            us_per_byte: 416,
            per_packet_overhead_us: 2_000,
            max_backoff_us: 12_000,
            csma: true,
            collisions: true,
            app_loss: 0.0,
            noise: NoiseModel::None,
        }
    }
}

impl MediumConfig {
    /// Airtime of a `bytes`-byte packet.
    pub fn airtime(&self, bytes: usize) -> Duration {
        Duration::from_micros(self.per_packet_overhead_us + self.us_per_byte * bytes as u64)
    }
}

/// Outcome of a reception attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Packet received and handed to the application.
    Received,
    /// Destroyed by an overlapping transmission.
    Collision,
    /// Lost to link quality or noise.
    PhyLoss,
    /// Dropped by the application-layer loss process.
    AppDrop,
    /// The transmission record was pruned before the delivery event
    /// fired (e.g. a fault handler cleared the air while the delivery
    /// was in flight); the packet silently never arrives.
    Pruned,
}

/// Shortest collision horizon: comfortably above the airtime of the
/// packets the protocols send (a ~200-byte signature packet is ~85 ms at
/// 19.2 kbps).
const MIN_COLLISION_HORIZON_US: u64 = 400_000;

/// How far behind the clock a finished transmission is still remembered
/// (µs), given the longest airtime begun so far.
///
/// A delivery fires at its transmission's `end`, and another transmission
/// overlaps it only if it ends after the delivered one started, i.e. less
/// than one airtime before the delivery. A horizon of at least the longest
/// airtime therefore never forgets a collision partner. Below the floor
/// the horizon only decides when a delivery that arrives late starts to
/// report [`Delivery::Pruned`].
fn collision_horizon_us(longest_airtime_us: u64) -> u64 {
    MIN_COLLISION_HORIZON_US.max(longest_airtime_us)
}

/// A live transmission; its id is its position in [`Medium::live`].
#[derive(Clone, Copy, Debug)]
struct Transmission {
    from: NodeId,
    start: SimTime,
    end: SimTime,
}

/// One on-air window as filed in the list of a node that sent or can
/// hear it.
#[derive(Clone, Copy, Debug)]
struct Window {
    id: u64,
    start: SimTime,
    end: SimTime,
}

/// The channel as one node perceives it.
#[derive(Clone, Debug, Default)]
struct Channel {
    /// End of the latest transmission audible here.
    busy_until: SimTime,
    /// The windows this node sent or can hear, ordered by `start`: the
    /// only transmissions that can destroy a reception here.
    windows: VecDeque<Window>,
}

/// A started broadcast, as observed by the caller (and any trace sink):
/// the correlation id plus the post-CSMA on-air window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxInfo {
    /// Transmission id correlating delivery outcomes with this send.
    pub id: u64,
    /// On-air start (after CSMA deferral and random backoff).
    pub start: SimTime,
    /// Reception-complete time; the caller schedules deliveries here.
    pub end: SimTime,
}

/// The shared channel state.
///
/// Calls must arrive in non-decreasing `now` order, and a transmission
/// is delivered at its [`TxInfo::end`]: each node's list forgets a
/// window as soon as no delivery at or after the clock can overlap it.
/// A reception therefore costs the transmissions audible at that
/// receiver around that time, not the fleet's.
#[derive(Debug)]
pub struct Medium {
    config: MediumConfig,
    /// Transmissions by id: `live[i]` has id `next_tx_id - live.len() + i`.
    /// Ids are dense, so lookup is an index; the front is dropped once it
    /// ends before `cutoff`.
    live: VecDeque<Transmission>,
    /// Per node, what it sent or can hear.
    channels: Vec<Channel>,
    /// Transmissions that ended before this are forgotten; a delivery
    /// for one reports [`Delivery::Pruned`].
    cutoff: SimTime,
    /// Longest airtime of any transmission begun so far.
    longest_airtime: Duration,
    /// Latest `now` seen, for the call-order contract.
    clock: SimTime,
    noise_states: Vec<NoiseState>,
    rng: DetRng,
    next_tx_id: u64,
}

impl Medium {
    /// Creates the medium for `n` nodes.
    pub fn new(config: MediumConfig, n: usize, seed: u64) -> Self {
        Medium {
            config,
            live: VecDeque::new(),
            channels: vec![Channel::default(); n],
            cutoff: SimTime::ZERO,
            longest_airtime: Duration::from_micros(0),
            clock: SimTime::ZERO,
            noise_states: vec![NoiseState::new(config.noise); n],
            rng: DetRng::seed_from_u64(seed ^ 0x4d45_4449),
            next_tx_id: 0,
        }
    }

    /// Configuration accessor.
    pub fn config(&self) -> &MediumConfig {
        &self.config
    }

    /// Starts a broadcast of `bytes` bytes from `from` at `now`.
    ///
    /// Returns the transmission's [`TxInfo`] (id plus the post-CSMA
    /// on-air window). The caller schedules delivery events at
    /// [`TxInfo::end`]. `now` must not precede any earlier call's.
    pub fn begin_broadcast(
        &mut self,
        now: SimTime,
        from: NodeId,
        bytes: usize,
        topo: &Topology,
    ) -> TxInfo {
        self.advance_clock(now);
        let mut start = now;
        if self.config.csma {
            start = start.max(self.channels[from.index()].busy_until);
            if self.config.max_backoff_us > 0 {
                start += Duration::from_micros(self.rng.gen_range(0..=self.config.max_backoff_us));
            }
        }
        let airtime = self.config.airtime(bytes);
        let end = start + airtime;
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        self.live.push_back(Transmission { from, start, end });
        self.longest_airtime = self.longest_airtime.max(airtime);
        self.prune(now);
        // Everyone who can hear `from` (and `from` itself) sees the
        // channel busy until `end`, and may lose a reception to it.
        let window = Window { id, start, end };
        self.file(from, window, now);
        for link in topo.links_from(from) {
            self.file(link.to, window, now);
        }
        TxInfo { id, start, end }
    }

    /// Decides the fate of transmission `tx_id` at receiver `to`.
    ///
    /// Must be called at the reception-complete time (the simulator's
    /// delivery event), and `now` must not precede any earlier call's.
    pub fn deliver(&mut self, now: SimTime, tx_id: u64, to: NodeId, topo: &Topology) -> Delivery {
        let Some(tx) = self.transmission(tx_id) else {
            return Delivery::Pruned;
        };
        self.deliver_link(now, tx_id, to, topo.prr(tx.from, to))
    }

    /// [`deliver`](Self::deliver) for a caller that already holds the
    /// `prr` of the link from the sender to `to`.
    pub(crate) fn deliver_link(
        &mut self,
        now: SimTime,
        tx_id: u64,
        to: NodeId,
        prr: f64,
    ) -> Delivery {
        let Some(tx) = self.transmission(tx_id) else {
            return Delivery::Pruned;
        };
        debug_assert!(
            tx.end >= self.clock,
            "transmission {tx_id} delivered after its reception-complete time"
        );
        self.advance_clock(now);
        // Collision / half-duplex check against what `to` sent or hears.
        if self.config.collisions {
            self.drop_dead_front(to, now);
            let collided = self.channels[to.index()]
                .windows
                .iter()
                .take_while(|other| other.start < tx.end)
                .any(|other| other.id != tx_id && other.end > tx.start);
            if collided {
                return Delivery::Collision;
            }
        }
        // Link PRR and noise.
        let noise_factor = self.noise_states[to.index()].factor_at(now, &mut self.rng);
        let effective = prr * noise_factor;
        if effective < 1.0 && !self.rng.gen_bool(effective.clamp(0.0, 1.0)) {
            return Delivery::PhyLoss;
        }
        // Application-layer drop (paper §VI-A).
        if self.config.app_loss > 0.0 && self.rng.gen_bool(self.config.app_loss) {
            return Delivery::AppDrop;
        }
        Delivery::Received
    }

    fn advance_clock(&mut self, now: SimTime) {
        debug_assert!(
            now >= self.clock,
            "medium called at {now:?} after {:?}: `now` must be non-decreasing",
            self.clock
        );
        self.clock = now;
    }

    /// The live transmission with this id, if it has not been forgotten.
    fn transmission(&self, tx_id: u64) -> Option<Transmission> {
        let first_id = self.next_tx_id - self.live.len() as u64;
        let index = usize::try_from(tx_id.checked_sub(first_id)?).ok()?;
        self.live
            .get(index)
            .copied()
            .filter(|tx| tx.end >= self.cutoff)
    }

    /// Forgets transmissions that ended more than a collision horizon
    /// before `now` (see [`collision_horizon_us`]).
    fn prune(&mut self, now: SimTime) {
        let horizon = collision_horizon_us(self.longest_airtime.as_micros());
        self.cutoff = self.cutoff.max(SimTime(now.0.saturating_sub(horizon)));
        while self.live.front().is_some_and(|tx| tx.end < self.cutoff) {
            self.live.pop_front();
        }
    }

    /// Records `window` as audible at `node`.
    fn file(&mut self, node: NodeId, window: Window, now: SimTime) {
        self.drop_dead_front(node, now);
        let channel = &mut self.channels[node.index()];
        channel.busy_until = channel.busy_until.max(window.end);
        // CSMA deferral makes starts nearly sorted already: search from
        // the back.
        let at = channel
            .windows
            .iter()
            .rposition(|w| w.start <= window.start)
            .map_or(0, |i| i + 1);
        channel.windows.insert(at, window);
    }

    /// Drops the leading windows of `node`'s list that ended at least the
    /// longest airtime before `now`. No delivery at or after `now` can
    /// overlap one: a transmission delivered at `d >= now` either is
    /// already on the books, so it started at or after `d - longest_airtime`,
    /// or begins later, so it starts at or after `now`.
    fn drop_dead_front(&mut self, node: NodeId, now: SimTime) {
        let list = &mut self.channels[node.index()].windows;
        while list
            .front()
            .is_some_and(|w| w.end + self.longest_airtime <= now)
        {
            list.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::BurstyNoise;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn no_loss_config() -> MediumConfig {
        MediumConfig {
            csma: false,
            collisions: true,
            max_backoff_us: 0,
            ..MediumConfig::default()
        }
    }

    #[test]
    fn airtime_scales_with_bytes() {
        let c = MediumConfig::default();
        assert!(c.airtime(100) > c.airtime(10));
        assert_eq!(
            c.airtime(0),
            Duration::from_micros(c.per_packet_overhead_us)
        );
    }

    #[test]
    fn perfect_link_delivers() {
        let topo = Topology::star(3);
        let mut m = Medium::new(no_loss_config(), 3, 1);
        let tx = m.begin_broadcast(SimTime::ZERO, NodeId(0), 10, &topo);
        assert_eq!(
            m.deliver(tx.end, tx.id, NodeId(1), &topo),
            Delivery::Received
        );
    }

    #[test]
    fn overlapping_transmissions_collide() {
        let topo = Topology::star(3);
        let mut m = Medium::new(no_loss_config(), 3, 1);
        // Two simultaneous senders, receiver hears both.
        let tx0 = m.begin_broadcast(SimTime::ZERO, NodeId(0), 10, &topo);
        let _tx1 = m.begin_broadcast(SimTime::ZERO, NodeId(1), 10, &topo);
        assert_eq!(
            m.deliver(tx0.end, tx0.id, NodeId(2), &topo),
            Delivery::Collision
        );
    }

    #[test]
    fn half_duplex_receiver_misses() {
        let topo = Topology::star(2);
        let mut m = Medium::new(no_loss_config(), 2, 1);
        let tx0 = m.begin_broadcast(SimTime::ZERO, NodeId(0), 10, &topo);
        // Node 1 transmits while node 0's packet is in the air.
        let _ = m.begin_broadcast(SimTime::ZERO, NodeId(1), 10, &topo);
        assert_eq!(
            m.deliver(tx0.end, tx0.id, NodeId(1), &topo),
            Delivery::Collision
        );
    }

    #[test]
    fn csma_defers_second_sender() {
        let topo = Topology::star(3);
        let cfg = MediumConfig {
            csma: true,
            max_backoff_us: 0,
            ..MediumConfig::default()
        };
        let mut m = Medium::new(cfg, 3, 1);
        let tx0 = m.begin_broadcast(SimTime::ZERO, NodeId(0), 10, &topo);
        let tx1 = m.begin_broadcast(SimTime::ZERO, NodeId(1), 10, &topo);
        assert!(tx1.end >= tx0.end + cfg.airtime(10), "second tx must defer");
        assert_eq!(
            m.deliver(tx0.end, tx0.id, NodeId(2), &topo),
            Delivery::Received
        );
        assert_eq!(
            m.deliver(tx1.end, tx1.id, NodeId(2), &topo),
            Delivery::Received
        );
    }

    #[test]
    fn app_loss_rate_statistical() {
        let topo = Topology::star(2);
        let cfg = MediumConfig {
            app_loss: 0.3,
            csma: false,
            collisions: false,
            max_backoff_us: 0,
            ..MediumConfig::default()
        };
        let mut m = Medium::new(cfg, 2, 99);
        let mut dropped = 0;
        let trials = 20_000;
        let mut t = SimTime::ZERO;
        for _ in 0..trials {
            let tx = m.begin_broadcast(t, NodeId(0), 10, &topo);
            if m.deliver(tx.end, tx.id, NodeId(1), &topo) == Delivery::AppDrop {
                dropped += 1;
            }
            t = tx.end + Duration::from_millis(10);
        }
        let rate = dropped as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "measured drop rate {rate}");
    }

    #[test]
    fn out_of_range_never_delivers() {
        let topo = Topology::line(3, 1.0);
        let mut m = Medium::new(no_loss_config(), 3, 1);
        let tx = m.begin_broadcast(SimTime::ZERO, NodeId(0), 10, &topo);
        assert_eq!(
            m.deliver(tx.end, tx.id, NodeId(2), &topo),
            Delivery::PhyLoss
        );
    }

    #[test]
    fn lossy_link_statistical() {
        let topo = Topology::line(2, 0.7);
        let cfg = MediumConfig {
            csma: false,
            collisions: false,
            max_backoff_us: 0,
            ..MediumConfig::default()
        };
        let mut m = Medium::new(cfg, 2, 5);
        let mut ok = 0;
        let trials = 20_000;
        let mut t = SimTime::ZERO;
        for _ in 0..trials {
            let tx = m.begin_broadcast(t, NodeId(0), 10, &topo);
            if m.deliver(tx.end, tx.id, NodeId(1), &topo) == Delivery::Received {
                ok += 1;
            }
            t = tx.end + Duration::from_millis(10);
        }
        let rate = ok as f64 / trials as f64;
        assert!((rate - 0.7).abs() < 0.02, "measured PRR {rate}");
    }

    #[test]
    fn long_packet_still_collides_with_a_short_one_that_ended_long_before() {
        // A 2 KiB packet is on the air for ~854 ms. The hidden terminal's
        // short packet overlaps its start and ends more than 500 ms
        // before the long one is delivered, with an unrelated broadcast
        // in between advancing the forgetting horizon.
        let topo = Topology::line(5, 1.0);
        let mut m = Medium::new(no_loss_config(), 5, 1);
        let long = m.begin_broadcast(SimTime::ZERO, NodeId(0), 2048, &topo);
        let short = m.begin_broadcast(SimTime(10_000), NodeId(2), 10, &topo);
        assert!(short.end + Duration::from_millis(500) < long.end);
        let _ = m.begin_broadcast(SimTime(600_000), NodeId(4), 10, &topo);
        assert_eq!(
            m.deliver(long.end, long.id, NodeId(1), &topo),
            Delivery::Collision
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn a_call_that_goes_back_in_time_is_caught() {
        let topo = Topology::star(2);
        let mut m = Medium::new(no_loss_config(), 2, 1);
        let _ = m.begin_broadcast(SimTime(1_000), NodeId(0), 10, &topo);
        let _ = m.begin_broadcast(SimTime(999), NodeId(1), 10, &topo);
    }

    /// Reference model: the global-scan channel state the per-node lists
    /// stand in for. Every remembered transmission sits in one list that
    /// a delivery searches for its own record and then scans in full,
    /// asking the topology per candidate whether the receiver hears it.
    struct GlobalScanMedium {
        config: MediumConfig,
        busy_until: Vec<SimTime>,
        transmissions: Vec<(u64, Transmission)>,
        longest_airtime: Duration,
        noise_states: Vec<NoiseState>,
        rng: DetRng,
        next_tx_id: u64,
    }

    impl GlobalScanMedium {
        fn new(config: MediumConfig, n: usize, seed: u64) -> Self {
            GlobalScanMedium {
                config,
                busy_until: vec![SimTime::ZERO; n],
                transmissions: Vec::new(),
                longest_airtime: Duration::from_micros(0),
                noise_states: vec![NoiseState::new(config.noise); n],
                rng: DetRng::seed_from_u64(seed ^ 0x4d45_4449),
                next_tx_id: 0,
            }
        }

        fn begin_broadcast(
            &mut self,
            now: SimTime,
            from: NodeId,
            bytes: usize,
            topo: &Topology,
        ) -> TxInfo {
            let mut start = now;
            if self.config.csma {
                start = start.max(self.busy_until[from.index()]);
                if self.config.max_backoff_us > 0 {
                    start +=
                        Duration::from_micros(self.rng.gen_range(0..=self.config.max_backoff_us));
                }
            }
            let airtime = self.config.airtime(bytes);
            let end = start + airtime;
            let id = self.next_tx_id;
            self.next_tx_id += 1;
            self.transmissions
                .push((id, Transmission { from, start, end }));
            self.longest_airtime = self.longest_airtime.max(airtime);
            self.busy_until[from.index()] = self.busy_until[from.index()].max(end);
            for link in topo.links_from(from) {
                let b = &mut self.busy_until[link.to.index()];
                *b = (*b).max(end);
            }
            let horizon = collision_horizon_us(self.longest_airtime.as_micros());
            let cutoff = SimTime(now.0.saturating_sub(horizon));
            self.transmissions.retain(|(_, t)| t.end >= cutoff);
            TxInfo { id, start, end }
        }

        fn deliver(&mut self, now: SimTime, tx_id: u64, to: NodeId, topo: &Topology) -> Delivery {
            let Some(&(_, tx)) = self.transmissions.iter().find(|(id, _)| *id == tx_id) else {
                return Delivery::Pruned;
            };
            if self.config.collisions {
                let collided = self.transmissions.iter().any(|&(id, other)| {
                    id != tx_id
                        && other.start < tx.end
                        && other.end > tx.start
                        && (other.from == to || topo.in_range(other.from, to))
                });
                if collided {
                    return Delivery::Collision;
                }
            }
            let prr = topo.prr(tx.from, to);
            let noise_factor = self.noise_states[to.index()].factor_at(now, &mut self.rng);
            let effective = prr * noise_factor;
            if effective < 1.0 && !self.rng.gen_bool(effective.clamp(0.0, 1.0)) {
                return Delivery::PhyLoss;
            }
            if self.config.app_loss > 0.0 && self.rng.gen_bool(self.config.app_loss) {
                return Delivery::AppDrop;
            }
            Delivery::Received
        }
    }

    /// Drives the medium and the reference model with one seeded random
    /// schedule and asserts they agree call by call, and on the state
    /// of every random stream at the end. Returns the outcome counts.
    fn assert_matches_reference(topo: &Topology, config: MediumConfig, seed: u64) -> [u64; 5] {
        let n = topo.len();
        let mut medium = Medium::new(config, n, seed);
        let mut reference = GlobalScanMedium::new(config, n, seed);
        let mut rng = DetRng::seed_from_u64(seed ^ 0x5eed);
        // (reception-complete time, tx id, receiver), earliest first.
        let mut pending: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
        // Deliveries left out on purpose, retried once forgotten.
        let mut skipped: Vec<(SimTime, u64, u32)> = Vec::new();
        let mut outcomes = [0u64; 5];
        let mut now = SimTime::ZERO;
        let context = format!("seed {seed}, {config:?}");
        let mut deliver = |medium: &mut Medium,
                           reference: &mut GlobalScanMedium,
                           at: SimTime,
                           id: u64,
                           to: u32| {
            let got = medium.deliver(at, id, NodeId(to), topo);
            let want = reference.deliver(at, id, NodeId(to), topo);
            assert_eq!(got, want, "tx {id} -> n{to} at {at:?} ({context})");
            outcomes[got as usize] += 1;
        };
        for step in 0..1500 {
            // Mostly busy, sometimes simultaneous, now and then a lull
            // longer than the forgetting horizon.
            now += Duration::from_micros(match rng.gen_range(0..20u32) {
                0 => 0,
                1 => rng.gen_range(400_000..1_500_000u64),
                _ => rng.gen_range(0..25_000u64),
            });
            while let Some(&Reverse((end, id, to))) = pending.peek() {
                if end > now {
                    break;
                }
                pending.pop();
                match rng.gen_range(0..12u32) {
                    // Never delivered in time.
                    0 => skipped.push((end, id, to)),
                    // Delivered twice.
                    1 => {
                        deliver(&mut medium, &mut reference, end, id, to);
                        deliver(&mut medium, &mut reference, end, id, to);
                    }
                    _ => deliver(&mut medium, &mut reference, end, id, to),
                }
            }
            // A forgotten transmission, and one never begun, are `Pruned`.
            skipped.retain(|&(end, id, to)| {
                let forgotten = end < medium.cutoff;
                if forgotten {
                    deliver(&mut medium, &mut reference, now, id, to);
                }
                !forgotten
            });
            if step % 100 == 0 {
                deliver(&mut medium, &mut reference, now, u64::MAX - step, 0);
            }
            // One broadcast, or one node queueing a whole page at once.
            let from = NodeId(rng.gen_range(0..n as u32));
            let burst = if rng.gen_range(0..60u32) == 0 { 48 } else { 1 };
            for _ in 0..burst {
                let bytes = match rng.gen_range(0..40u32) {
                    0 => 2048,
                    1..=8 => 24,
                    _ => 96,
                };
                let got = medium.begin_broadcast(now, from, bytes, topo);
                let want = reference.begin_broadcast(now, from, bytes, topo);
                assert_eq!(
                    got, want,
                    "broadcast from n{} at {now:?} ({context})",
                    from.0
                );
                for link in topo.links_from(from) {
                    pending.push(Reverse((got.end, got.id, link.to.0)));
                }
                // Now and then a node out of range is asked as well.
                if rng.gen_range(0..50u32) == 0 {
                    pending.push(Reverse((got.end, got.id, rng.gen_range(0..n as u32))));
                }
            }
        }
        while let Some(Reverse((end, id, to))) = pending.pop() {
            deliver(&mut medium, &mut reference, end, id, to);
        }
        assert_eq!(
            format!("{:?}", medium.rng),
            format!("{:?}", reference.rng),
            "random stream diverged ({context})"
        );
        assert_eq!(
            format!("{:?}", medium.noise_states),
            format!("{:?}", reference.noise_states),
            "noise processes diverged ({context})"
        );
        outcomes
    }

    #[test]
    fn per_node_lists_match_the_global_scan_on_random_schedules() {
        let topologies = [
            // Random geometric: multi-hop, hidden terminals everywhere.
            Topology::random(40, 60.0, 60.0, 11),
            Topology::grid(6, 8.0, 12),
            // One collision domain.
            Topology::star(9),
            // A chain: every sender's two neighbours are hidden from
            // each other.
            Topology::line(7, 0.9),
        ];
        let mut totals = [0u64; 5];
        for (t, topo) in topologies.iter().enumerate() {
            for variant in 0..8u64 {
                let config = MediumConfig {
                    csma: variant & 1 == 0,
                    max_backoff_us: if variant & 2 == 0 { 12_000 } else { 0 },
                    noise: if variant & 4 == 0 {
                        NoiseModel::None
                    } else {
                        NoiseModel::Bursty(BurstyNoise::heavy())
                    },
                    app_loss: if variant == 3 { 0.2 } else { 0.0 },
                    ..MediumConfig::default()
                };
                let counts = assert_matches_reference(topo, config, 100 * t as u64 + variant);
                for (total, count) in totals.iter_mut().zip(counts) {
                    *total += count;
                }
            }
        }
        // The schedules reach every outcome, not just the easy ones.
        assert!(totals.iter().all(|&count| count > 100), "{totals:?}");
    }
}
