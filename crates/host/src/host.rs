//! The real-time host: drives a [`Protocol`] over a [`Transport`].
//!
//! This is driver (b) for the protocol contract — the same state
//! machines the discrete-event simulator executes, but clocked by the
//! OS monotonic clock and fed by real sockets or in-process channels.
//!
//! Virtual time is derived from wall time through a configurable
//! [`time scale`](HostConfig::time_scale): `virtual_us = wall_us ×
//! scale`. Protocols are written against radio-era constants (multi-
//! second Trickle intervals, a 2.5 s retry timer); scaling time rather
//! than patching constants preserves every protocol ratio — timer
//! relative ordering, pacing vs. timeout proportions — while letting a
//! localhost swarm disseminate in wall-clock seconds.
//!
//! Timer semantics mirror the simulator exactly via the generation-
//! checked [`TimerWheel`]; broadcasts are wrapped in the transport
//! [`envelope`](crate::envelope) and handed to the transport, and
//! inbound datagrams are unwrapped (malformed or self-originated
//! frames dropped and counted) before reaching `on_packet`.

use crate::envelope::{decode_frame, encode_frame};
use crate::node::{Action, Context, NodeId, Protocol};
use crate::time::SimTime;
use crate::timer::TimerWheel;
use lrs_rng::DetRng;
use std::io;
use std::sync::mpsc;
use std::time::Instant;

/// How a host maps wall time onto protocol time and airtime.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// Airtime per payload byte reported to the protocol (µs). The
    /// default is the simulator's 19.2 kbps radio; a `node` process
    /// takes both airtime constants from its capsule's medium, so pacing
    /// decisions are identical.
    pub us_per_byte: u64,
    /// Fixed per-packet overhead reported to the protocol (µs).
    pub per_packet_overhead_us: u64,
    /// Virtual microseconds per wall microsecond (≥ 1). At 10, the
    /// protocol's 2.5 s retry timer fires after 250 ms of wall time.
    pub time_scale: u64,
}

/// Longest wall-clock block in one receive call when no timer is
/// pending sooner.
const POLL: std::time::Duration = std::time::Duration::from_millis(20);

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            us_per_byte: 416,
            per_packet_overhead_us: 2_000,
            time_scale: 10,
        }
    }
}

/// How a host reaches its peers. `send` carries one encoded envelope
/// frame toward every other node (broadcast semantics); `recv` waits up
/// to `wait` of wall time for the next inbound datagram.
pub trait Transport {
    /// Broadcasts one frame to all peers (never back to the sender).
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Receives the next datagram, or `None` if `wait` elapses first.
    fn recv(&mut self, wait: std::time::Duration) -> io::Result<Option<Vec<u8>>>;
}

/// Counters and final state from a host run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostReport {
    /// Whether the protocol reported completion.
    pub complete: bool,
    /// Virtual time when the run ended.
    pub finished_at: SimTime,
    /// Frames handed to the transport.
    pub tx_frames: u64,
    /// Well-formed frames delivered to the protocol.
    pub rx_frames: u64,
    /// Datagrams dropped at the envelope (malformed, wrong version,
    /// or self-originated).
    pub rx_rejected: u64,
}

/// A real-time event loop driving one [`Protocol`] instance.
pub struct Host<P: Protocol, T: Transport> {
    id: NodeId,
    protocol: P,
    transport: T,
    cfg: HostConfig,
    rng: DetRng,
    wheel: TimerWheel,
    epoch: Instant,
    actions: Vec<Action>,
    tx_frames: u64,
    rx_frames: u64,
    rx_rejected: u64,
}

impl<P: Protocol, T: Transport> Host<P, T> {
    /// Builds a host for node `id`. The RNG stream is seeded exactly
    /// like the simulator seeds per-node streams would be — callers
    /// pick the mixing; determinism across hosts is not required (real
    /// networks are not deterministic), only per-node reproducibility
    /// of protocol-internal choices.
    pub fn new(id: NodeId, protocol: P, transport: T, seed: u64, cfg: HostConfig) -> Self {
        assert!(cfg.time_scale >= 1, "time_scale must be >= 1");
        Host {
            id,
            protocol,
            transport,
            cfg,
            rng: DetRng::seed_from_u64(seed ^ u64::from(id.0).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            wheel: TimerWheel::new(),
            epoch: Instant::now(),
            actions: Vec::new(),
            tx_frames: 0,
            rx_frames: 0,
            rx_rejected: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64 * self.cfg.time_scale)
    }

    /// The node this host runs.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The protocol state machine.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Whether the protocol reports completion.
    pub fn is_complete(&self) -> bool {
        self.protocol.is_complete()
    }

    /// Counters so far.
    pub fn report(&self) -> HostReport {
        HostReport {
            complete: self.protocol.is_complete(),
            finished_at: self.now(),
            tx_frames: self.tx_frames,
            rx_frames: self.rx_frames,
            rx_rejected: self.rx_rejected,
        }
    }

    fn dispatch(&mut self, f: impl FnOnce(&mut P, &mut Context<'_>)) -> io::Result<()> {
        let now = self.now();
        {
            let mut ctx = Context::new(
                now,
                self.id,
                &mut self.rng,
                &mut self.actions,
                self.cfg.us_per_byte,
                self.cfg.per_packet_overhead_us,
            );
            f(&mut self.protocol, &mut ctx);
        }
        // The buffer goes back afterwards, so dispatches reuse one
        // allocation (a failed send drops the actions after it).
        let mut actions = std::mem::take(&mut self.actions);
        let applied = actions
            .drain(..)
            .try_for_each(|action| self.apply(now, action));
        self.actions = actions;
        applied
    }

    fn apply(&mut self, now: SimTime, action: Action) -> io::Result<()> {
        match action {
            Action::Broadcast { kind, data } => {
                let frame = encode_frame(self.id, kind, &data);
                self.transport.send(&frame)?;
                self.tx_frames += 1;
            }
            Action::SetTimer { timer, delay } => self.wheel.arm(timer, now + delay),
            Action::CancelTimer { timer } => self.wheel.cancel(timer),
            // Observational only; real hosts have no trace sink yet.
            Action::Note { .. } => {}
        }
        Ok(())
    }

    /// Runs `on_init`. Call once before stepping.
    pub fn init(&mut self) -> io::Result<()> {
        self.dispatch(|p, ctx| p.on_init(ctx))
    }

    /// Fires every due timer, then waits for at most one inbound
    /// datagram (bounded by the next timer deadline or the poll
    /// interval) and delivers it.
    pub fn step(&mut self) -> io::Result<()> {
        loop {
            let now = self.now();
            match self.wheel.pop_due(now) {
                Some(timer) => self.dispatch(|p, ctx| p.on_timer(ctx, timer))?,
                None => break,
            }
        }
        let wait = match self.wheel.next_deadline() {
            Some(deadline) => {
                let virtual_gap = deadline.saturating_since(self.now()).as_micros();
                // Round the wall wait up so we do not spin short of the
                // deadline; pop_due tolerates firing late.
                let wall_us = virtual_gap.div_ceil(self.cfg.time_scale);
                std::time::Duration::from_micros(wall_us).min(POLL)
            }
            None => POLL,
        };
        if let Some(datagram) = self.transport.recv(wait)? {
            match decode_frame(&datagram) {
                Some(frame) if frame.from != self.id => {
                    self.rx_frames += 1;
                    // `frame` borrows the local datagram, not `self`.
                    self.dispatch(|p, ctx| p.on_packet(ctx, frame.from, frame.payload))?;
                }
                _ => self.rx_rejected += 1,
            }
        }
        Ok(())
    }

    /// Steps until the protocol completes or `wall_deadline` elapses;
    /// returns the final report.
    pub fn run(&mut self, wall_deadline: std::time::Duration) -> io::Result<HostReport> {
        let start = Instant::now();
        self.init()?;
        while !self.protocol.is_complete() && start.elapsed() < wall_deadline {
            self.step()?;
        }
        Ok(self.report())
    }
}

/// [`Transport`] over a UDP socket: broadcast fans out one `send_to`
/// per peer address (typically just the swarm proxy, which applies the
/// loss model and fans out to everyone else).
pub struct UdpTransport {
    socket: std::net::UdpSocket,
    peers: Vec<std::net::SocketAddr>,
}

impl UdpTransport {
    /// Binds `addr` and remembers the peer list.
    pub fn bind(
        addr: std::net::SocketAddr,
        peers: Vec<std::net::SocketAddr>,
    ) -> io::Result<UdpTransport> {
        let socket = std::net::UdpSocket::bind(addr)?;
        Ok(UdpTransport { socket, peers })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.socket.local_addr()
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        for peer in &self.peers {
            match self.socket.send_to(frame, peer) {
                Ok(_) => {}
                // A peer that is not bound yet surfaces as a reflected
                // ICMP error on Linux; dissemination is loss-tolerant,
                // so treat it as a dropped packet.
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn recv(&mut self, wait: std::time::Duration) -> io::Result<Option<Vec<u8>>> {
        // set_read_timeout rejects a zero duration.
        let wait = wait.max(std::time::Duration::from_micros(100));
        self.socket.set_read_timeout(Some(wait))?;
        let mut buf = [0u8; 2048];
        match self.socket.recv_from(&mut buf) {
            Ok((n, _src)) => Ok(Some(buf[..n].to_vec())),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::ConnectionRefused
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// [`Transport`] over in-process mpsc channels, for loopback swarms in
/// tests: a router thread owns the receiving ends of every node's `tx`
/// and forwards frames (minus the sender, minus whatever its loss
/// model drops) into the other nodes' `rx` queues.
pub struct ChannelTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
}

impl ChannelTransport {
    /// Wraps an outbound sender (to the router) and an inbound receiver.
    pub fn new(tx: mpsc::Sender<Vec<u8>>, rx: mpsc::Receiver<Vec<u8>>) -> ChannelTransport {
        ChannelTransport { tx, rx }
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "router hung up"))
    }

    fn recv(&mut self, wait: std::time::Duration) -> io::Result<Option<Vec<u8>>> {
        match self.rx.recv_timeout(wait) {
            Ok(frame) => Ok(Some(frame)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "router hung up"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{PacketKind, TimerId};
    use crate::time::Duration;

    /// Node 0 floods a token once; everyone else re-floods on first
    /// receipt. The host-loop analog of the netsim doc example.
    struct Flood {
        seen: bool,
        origin: bool,
    }

    impl Protocol for Flood {
        fn on_init(&mut self, ctx: &mut Context<'_>) {
            if self.origin {
                self.seen = true;
                ctx.broadcast(PacketKind::Data, b"token".to_vec());
            }
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, _from: NodeId, data: &[u8]) {
            if !self.seen && data == b"token" {
                self.seen = true;
                ctx.broadcast(PacketKind::Data, b"token".to_vec());
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerId) {}
        fn is_complete(&self) -> bool {
            self.seen
        }
    }

    /// Completes when its timer has fired twice; re-arms itself.
    struct TwoTicks {
        fired: u32,
    }

    impl Protocol for TwoTicks {
        fn on_init(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(TimerId(0), Duration::from_millis(5));
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, t: TimerId) {
            self.fired += 1;
            if self.fired < 2 {
                ctx.set_timer(t, Duration::from_millis(5));
            }
        }
        fn is_complete(&self) -> bool {
            self.fired >= 2
        }
    }

    /// A transport wired to nothing: sends vanish, receives time out.
    struct NullTransport;
    impl Transport for NullTransport {
        fn send(&mut self, _frame: &[u8]) -> io::Result<()> {
            Ok(())
        }
        fn recv(&mut self, wait: std::time::Duration) -> io::Result<Option<Vec<u8>>> {
            std::thread::sleep(wait.min(std::time::Duration::from_millis(1)));
            Ok(None)
        }
    }

    #[test]
    fn timers_fire_on_the_scaled_clock() {
        let cfg = HostConfig {
            time_scale: 100,
            ..HostConfig::default()
        };
        let mut host = Host::new(NodeId(0), TwoTicks { fired: 0 }, NullTransport, 7, cfg);
        let report = host
            .run(std::time::Duration::from_secs(2))
            .expect("null transport cannot fail");
        assert!(report.complete, "both ticks fired");
    }

    #[test]
    fn two_hosts_flood_over_channels() {
        // Direct cross-wiring: each host's outbound channel is the
        // other's inbound queue.
        let (tx_a, rx_b) = mpsc::channel();
        let (tx_b, rx_a) = mpsc::channel();
        let cfg = HostConfig::default();
        let mut a = Host::new(
            NodeId(0),
            Flood {
                seen: false,
                origin: true,
            },
            ChannelTransport::new(tx_a, rx_a),
            1,
            cfg,
        );
        let mut b = Host::new(
            NodeId(1),
            Flood {
                seen: false,
                origin: false,
            },
            ChannelTransport::new(tx_b, rx_b),
            1,
            cfg,
        );
        let t = std::thread::spawn(move || b.run(std::time::Duration::from_secs(5)));
        let ra = a.run(std::time::Duration::from_secs(5)).expect("host a");
        let rb = t.join().expect("join").expect("host b");
        assert!(ra.complete && rb.complete);
        assert_eq!(rb.rx_frames, 1, "b received exactly the token");
    }

    #[test]
    fn malformed_and_self_frames_are_rejected() {
        let (tx, rx) = mpsc::channel();
        let (tx_out, _rx_sink) = mpsc::channel();
        // Garbage, then a valid frame claiming to be from ourselves,
        // then the real token.
        tx.send(b"not an envelope".to_vec()).unwrap();
        tx.send(encode_frame(NodeId(5), PacketKind::Data, b"token"))
            .unwrap();
        tx.send(encode_frame(NodeId(1), PacketKind::Data, b"token"))
            .unwrap();
        let mut host = Host::new(
            NodeId(5),
            Flood {
                seen: false,
                origin: false,
            },
            ChannelTransport::new(tx_out, rx),
            3,
            HostConfig::default(),
        );
        let report = host.run(std::time::Duration::from_secs(5)).expect("run");
        assert!(report.complete);
        assert_eq!(report.rx_frames, 1);
        assert_eq!(report.rx_rejected, 2);
    }
}
