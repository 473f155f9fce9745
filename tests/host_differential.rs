//! Differential check: one capsule executed by the discrete-event
//! simulator and by real-time channel-backed hosts must agree.
//!
//! Both drivers run the *identical* `Protocol` state machines built
//! from one capsule's scenario tags; the simulator schedules them on
//! virtual time while the hosts run on the scaled monotonic clock with
//! the swarm proxy's loss model between them, read from the same
//! capsule. The end states must line up: every node completes, the sim
//! checker's invariants hold on both sides, and every node on both
//! sides reassembles the byte-identical image.
//!
//! This is the loopback (no-UDP) version of what the `swarm` binary
//! asserts across OS processes, fast enough for tier-1 CI.
//!
//! Beneath the end states, both drivers seed each node's protocol RNG
//! the same way, so a host draws what its simulated twin draws.

use lr_seluge_repro::lrs_bench::capsules::{
    population, profile_deployment, profile_image, LrScheme, ScenarioTags, SelugeScheme,
};
use lr_seluge_repro::lrs_bench::runner::simulate;
use lr_seluge_repro::lrs_bench::Matched;
use lr_seluge_repro::lrs_host::{
    ChannelTransport, Context, Host, HostConfig, NodeId, Protocol, TimerId,
};
use lr_seluge_repro::swarm::{status, LossyLinks, NodeStatus};
use lrs_crypto::sha256::sha256;
use lrs_host::time::Duration as SimDuration;
use lrs_netsim::capsule::Capsule;
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::{Outcome, SimConfig};
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const NODES: usize = 5;

/// `star:5` at 2 % application-layer loss, no faults, running scheme
/// `S` in the `campaign` profile at 768 bytes.
fn capsule<S: Matched>() -> Capsule {
    Capsule {
        seed: 11,
        deadline: SimDuration::from_secs(10_000),
        config: SimConfig {
            medium: MediumConfig {
                app_loss: 0.02,
                ..MediumConfig::default()
            },
            stall_window: None,
        },
        topology: Topology::star(NODES),
        faults: FaultPlan::new(),
        scenario: ScenarioTags::new(S::NAME, "campaign", 768, "loopback differential").pairs(),
        digest: None,
    }
}

/// Runs the capsule in the discrete-event simulator and harvests each
/// node's final status.
fn run_sim<S: Matched>(capsule: &Capsule) -> Vec<NodeStatus> {
    let tags = ScenarioTags::decode(capsule).expect("tags");
    let pop = population::<S>(&tags).expect("population");
    let done = simulate(&pop, capsule, true, Vec::new());
    assert_eq!(done.report.outcome, Outcome::Complete, "sim run completed");
    done.honest()
        .map(|(_, node)| status(pop.deployment(), node))
        .collect()
}

/// Runs the capsule on real-time hosts wired through an in-process
/// router with the swarm proxy's loss model and harvests each node's
/// final status.
fn run_hosts<S: Matched>(capsule: &Capsule) -> Vec<NodeStatus> {
    let medium = &capsule.config.medium;
    let cfg = HostConfig {
        us_per_byte: medium.us_per_byte,
        per_packet_overhead_us: medium.per_packet_overhead_us,
        // 50x so the protocol's multi-second timers fire every few
        // tens of milliseconds: the whole dissemination takes ~1 s.
        time_scale: 50,
    };

    // Every host sends into one shared router queue; the router fans
    // frames out along the capsule's links through the proxy's loss
    // model.
    let (to_router, router_rx) = mpsc::channel::<Vec<u8>>();
    let mut host_rxs = Vec::new();
    let mut host_txs = Vec::new();
    for _ in 0..NODES {
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        host_txs.push(tx);
        host_rxs.push(rx);
    }
    let mut links = LossyLinks::new(capsule, 5_000, 10_000);
    let router = std::thread::spawn(move || {
        // Exits when every host thread has returned and dropped its
        // clone of the router sender.
        while let Ok(frame) = router_rx.recv() {
            let Some(decoded) = lr_seluge_repro::lrs_host::decode_frame(&frame) else {
                continue;
            };
            links.fan_out(decoded.from, |dest, verdict| {
                for _ in 0..verdict.copies {
                    let _ = host_txs[dest.index()].send(frame.clone());
                }
            });
        }
    });

    let done = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    for (id, rx) in host_rxs.into_iter().enumerate() {
        let transport = ChannelTransport::new(to_router.clone(), rx);
        let tags = ScenarioTags::decode(capsule).expect("tags");
        let seed = capsule.seed;
        let done = Arc::clone(&done);
        threads.push(std::thread::spawn(move || {
            // The LR node's digest memo is Rc-based, so the protocol is
            // built inside its thread.
            let deployment =
                profile_deployment::<S>(&tags.profile, tags.image_len, &tags.key_context)
                    .expect("deployment");
            let id = NodeId(id as u32);
            let mut host = Host::new(id, deployment.node(id, NodeId(0)), transport, seed, cfg);
            host.run(Duration::from_secs(60)).expect("host run");
            done.fetch_add(1, Ordering::SeqCst);
            // A completed node is a seeder: keep answering until the
            // whole swarm is done.
            while done.load(Ordering::SeqCst) < NODES {
                host.step().expect("host step");
            }
            status(&deployment, host.protocol())
        }));
    }
    drop(to_router);
    let statuses: Vec<NodeStatus> = threads
        .into_iter()
        .map(|t| t.join().expect("host thread"))
        .collect();
    router.join().expect("router thread");
    statuses
}

fn differential<S: Matched>() {
    let capsule = capsule::<S>();
    let scheme = S::NAME;
    let image = profile_image("campaign", 768).expect("image");
    let expected = sha256(&image).to_hex();
    let sim = run_sim::<S>(&capsule);
    let hosts = run_hosts::<S>(&capsule);
    assert_eq!(sim.len(), NODES);
    assert_eq!(hosts.len(), NODES);
    for (id, (s, h)) in sim.iter().zip(&hosts).enumerate() {
        assert!(s.complete, "{scheme} sim node {id} complete");
        assert!(h.complete, "{scheme} host node {id} complete");
        assert!(s.invariants_ok, "{scheme} sim node {id} invariants");
        assert!(h.invariants_ok, "{scheme} host node {id} invariants");
        assert_eq!(
            s.digest.as_deref(),
            Some(expected.as_str()),
            "{scheme} sim node {id} image"
        );
        // The load-bearing agreement: both drivers left every node
        // holding the byte-identical image.
        assert_eq!(s, h, "{scheme} node {id} end state diverges");
    }
}

#[test]
fn lr_seluge_sim_and_hosts_agree() {
    differential::<LrScheme>();
}

#[test]
fn seluge_sim_and_hosts_agree() {
    differential::<SelugeScheme>();
}

/// Records its first four RNG draws at init and is then done.
#[derive(Default)]
struct Draws(Vec<u64>);

impl Protocol for Draws {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        self.0 = (0..4).map(|_| ctx.rng().next_u64()).collect();
    }
    fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
    fn on_timer(&mut self, _: &mut Context<'_>, _: TimerId) {}
    fn is_complete(&self) -> bool {
        !self.0.is_empty()
    }
}

#[test]
fn hosts_draw_what_their_simulated_twins_draw() {
    let mut sim = SimBuilder::new(Topology::star(4), 11, |_| Draws::default()).build();
    let report = sim.run(SimDuration::from_secs(1));
    assert_eq!(report.outcome, Outcome::Complete);
    for id in (0..4).map(NodeId) {
        let (tx, rx) = mpsc::channel();
        let transport = ChannelTransport::new(tx, rx);
        let mut host = Host::new(id, Draws::default(), transport, 11, HostConfig::default());
        host.init().expect("init");
        assert_eq!(host.protocol().0, sim.node(id).0, "node {id}");
    }
}
