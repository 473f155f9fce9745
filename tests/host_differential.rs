//! Differential check: the same scenario executed by the discrete-event
//! simulator and by real-time channel-backed hosts must agree.
//!
//! Both drivers run the *identical* `Protocol` state machines built
//! from one [`SwarmScenario`]; the simulator schedules them on virtual
//! time while the hosts run on the scaled monotonic clock with a lossy
//! in-process router between them. The end states must line up: every
//! node completes, the sim checker's invariants hold on both sides, and
//! every node on both sides reassembles the byte-identical image.
//!
//! This is the loopback (no-UDP) version of what the `swarm` binary
//! asserts across OS processes, fast enough for tier-1 CI.

use lr_seluge_repro::lrs_bench::capsules::{LrScheme, SelugeScheme};
use lr_seluge_repro::lrs_bench::Matched;
use lr_seluge_repro::lrs_host::{ChannelTransport, Host, HostConfig, NodeId};
use lr_seluge_repro::swarm::{LossyLinks, NodeStatus, SwarmScenario};
use lrs_host::time::Duration as SimDuration;
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::sim::Outcome;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const NODES: usize = 5;

fn scenario() -> SwarmScenario {
    SwarmScenario {
        profile: "campaign".into(),
        image_len: 768,
        key_context: "loopback differential".into(),
        seed: 11,
    }
}

/// Runs the scenario in the discrete-event simulator and harvests each
/// node's final status.
fn run_sim<S: Matched>(scenario: &SwarmScenario) -> Vec<NodeStatus> {
    let mut sim = SimBuilder::new(Topology::star(NODES), scenario.seed, |id| {
        scenario.build_node::<S>(id).expect("node")
    })
    .build();
    let report = sim.run(SimDuration::from_secs(10_000));
    assert_eq!(report.outcome, Outcome::Complete, "sim run completed");
    (0..NODES as u32)
        .map(|id| sim.node(NodeId(id)).status())
        .collect()
}

/// Runs the scenario on real-time hosts wired through an in-process
/// lossy router and harvests each node's final status.
fn run_hosts<S: Matched>(scenario: &SwarmScenario) -> Vec<NodeStatus> {
    let cfg = HostConfig {
        // 50x so the protocol's multi-second timers fire every few
        // tens of milliseconds: the whole dissemination takes ~1 s.
        time_scale: 50,
        ..HostConfig::default()
    };

    // Every host sends into one shared router queue; the router fans
    // frames out to everyone but the sender, through the same loss
    // model vocabulary the UDP proxy uses.
    let (to_router, router_rx) = mpsc::channel::<Vec<u8>>();
    let mut host_rxs = Vec::new();
    let mut host_txs = Vec::new();
    for _ in 0..NODES {
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        host_txs.push(tx);
        host_rxs.push(rx);
    }
    let router = std::thread::spawn(move || {
        let mut links = LossyLinks::new(20_000, 5_000, 10_000, &FaultPlan::new(), 11);
        // Exits when every host thread has returned and dropped its
        // clone of the router sender.
        while let Ok(frame) = router_rx.recv() {
            let Some(decoded) = lr_seluge_repro::lrs_host::decode_frame(&frame) else {
                continue;
            };
            let from = decoded.from;
            for (dest, tx) in host_txs.iter().enumerate() {
                if dest as u32 == from.0 {
                    continue;
                }
                let verdict = links.verdict(from, NodeId(dest as u32));
                for _ in 0..verdict.copies {
                    let _ = tx.send(frame.clone());
                }
            }
        }
    });

    let done = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    for (id, rx) in host_rxs.into_iter().enumerate() {
        let transport = ChannelTransport::new(to_router.clone(), rx);
        let scenario = scenario.clone();
        let done = Arc::clone(&done);
        threads.push(std::thread::spawn(move || {
            // The LR node's digest memo is Rc-based, so the protocol is
            // built inside its thread.
            let protocol = scenario.build_node::<S>(NodeId(id as u32)).expect("node");
            let mut host = Host::new(NodeId(id as u32), protocol, transport, scenario.seed, cfg);
            host.run(Duration::from_secs(60)).expect("host run");
            done.fetch_add(1, Ordering::SeqCst);
            // A completed node is a seeder: keep answering until the
            // whole swarm is done.
            while done.load(Ordering::SeqCst) < NODES {
                host.step().expect("host step");
            }
            host.protocol().status()
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
    let scenario = scenario();
    let scheme = S::NAME;
    let expected = scenario.expected_digest().expect("digest");
    let sim = run_sim::<S>(&scenario);
    let hosts = run_hosts::<S>(&scenario);
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
