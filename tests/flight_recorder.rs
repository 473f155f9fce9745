//! Flight-recorder end-to-end tests: capture → capsule → replay
//! bit-identity on both engines and both schemes, automatic failure
//! capsules from the watchdog, divergence bisection, and delta-debugged
//! chaos-scenario shrinking.

use lr_seluge::Deployment;
use lrs_bench::capsules::{replay_capsule, scale_params as small_lr, ScenarioTags};
use lrs_bench::matched_seluge_params;
use lrs_netsim::capsule::{Capsule, EngineDigest, RunDigest, SEQUENTIAL_ENGINE, SHARDED_ENGINE};
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::node::{Context, NodeId, PacketKind, Protocol, TimerId};
use lrs_netsim::replay::{
    bisect_engines, bisect_shard_counts, replay_sequential, replay_sharded, verify_replay,
};
use lrs_netsim::shrink::shrink_fault_plan;
use lrs_netsim::sim::{Outcome, SimConfig};
use lrs_netsim::time::{Duration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_netsim::trace::SharedRingTrace;
use lrs_netsim::SimBuilder;
use lrs_rng::DetRng;
use lrs_seluge::SelugeDeployment;
use std::path::PathBuf;

fn deadline() -> Duration {
    Duration::from_secs(100_000)
}

fn test_image(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// Deployment construction is fully derived from the image bytes and
/// parameters, so a fresh instance per closure reproduces the captured
/// run exactly — the property replay relies on.
fn lr_deployment() -> Deployment {
    let image = test_image(1024);
    Deployment::new(&image, small_lr(image.len()), b"flight recorder")
}

fn unique_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lrs-flight-{}-{name}", std::process::id()))
}

/// Captures one LR-Seluge run on each engine and packages both digests
/// into a capsule — what `lrs-bench`'s `replay --capture` does.
fn lr_capsule(side: usize, seed: u64) -> Capsule {
    let topology = Topology::grid(side, 10.0, 77);
    let deployment = lr_deployment();
    let sharded = SimBuilder::new(topology.clone(), seed, |id| deployment.node(id, NodeId(0)))
        .shards(2)
        .collect_trace(true)
        .run_sharded(deadline(), |_, _| ());
    assert_eq!(sharded.report.outcome, Outcome::Complete);
    let sharded_digest = RunDigest::compute(
        &sharded.report,
        &sharded.metrics,
        &sharded.trace,
        Some(&sharded.keyed_trace),
    );
    let ring = SharedRingTrace::new(usize::MAX);
    let mut sim = SimBuilder::new(topology.clone(), seed, |id| deployment.node(id, NodeId(0)))
        .trace(ring.clone())
        .build();
    let report = sim.run(deadline());
    assert_eq!(report.outcome, Outcome::Complete);
    let sequential_digest = RunDigest::compute(&report, sim.metrics(), &ring.events(), None);
    Capsule {
        seed,
        engine: SHARDED_ENGINE.to_string(),
        shards: 2,
        deadline: deadline(),
        config: SimConfig::default(),
        topology,
        faults: FaultPlan::new(),
        scenario: vec![("scheme".to_string(), "lr-seluge".to_string())],
        digests: vec![
            EngineDigest {
                engine: SEQUENTIAL_ENGINE.to_string(),
                shards: 1,
                digest: sequential_digest,
            },
            EngineDigest {
                engine: SHARDED_ENGINE.to_string(),
                shards: 2,
                digest: sharded_digest,
            },
        ],
    }
}

#[test]
fn lr_capsule_replays_bit_identically_on_both_engines() {
    let capsule = lr_capsule(6, 42);
    // The capsule must survive a serialization round trip before the
    // replays, so what is verified is what a file would carry.
    let restored = Capsule::from_jsonl(&capsule.to_jsonl()).expect("round trip");
    assert_eq!(restored, capsule);
    let deployment = lr_deployment();
    let sequential = replay_sequential(&restored, |id| deployment.node(id, NodeId(0)));
    verify_replay(&restored, &sequential).expect("sequential replay diverged");
    for shards in [1usize, 2, 4] {
        let run = replay_sharded(&restored, shards, |id| deployment.node(id, NodeId(0)));
        verify_replay(&restored, &run)
            .unwrap_or_else(|err| panic!("sharded replay @ {shards} shards diverged: {err}"));
    }
}

#[test]
fn lr_capsule_with_faults_replays_bit_identically() {
    // Cross-shard chaos in the capture must be reproduced exactly by
    // the replay, because the capsule carries the full fault schedule.
    let mut faults = FaultPlan::new();
    faults.crash_and_reboot(NodeId(7), SimTime(400_000), Duration::from_secs(2));
    faults.crash(NodeId(34), SimTime(700_000));
    faults.link_outage(
        NodeId(35),
        NodeId(29),
        SimTime(300_000),
        Duration::from_secs(1),
    );
    let topology = Topology::grid(6, 10.0, 77);
    let deployment = lr_deployment();
    let captured = SimBuilder::new(topology.clone(), 3, |id| deployment.node(id, NodeId(0)))
        .faults(faults.clone())
        .shards(4)
        .collect_trace(true)
        .run_sharded(deadline(), |_, _| ());
    assert_eq!(captured.report.outcome, Outcome::Complete);
    let capsule = Capsule {
        seed: 3,
        engine: SHARDED_ENGINE.to_string(),
        shards: 4,
        deadline: deadline(),
        config: SimConfig::default(),
        topology,
        faults,
        scenario: Vec::new(),
        digests: vec![EngineDigest {
            engine: SHARDED_ENGINE.to_string(),
            shards: 4,
            digest: RunDigest::compute(
                &captured.report,
                &captured.metrics,
                &captured.trace,
                Some(&captured.keyed_trace),
            ),
        }],
    };
    let restored = Capsule::from_framed(&capsule.to_framed()).expect("framed round trip");
    for shards in [1usize, 2] {
        let run = replay_sharded(&restored, shards, |id| deployment.node(id, NodeId(0)));
        verify_replay(&restored, &run)
            .unwrap_or_else(|err| panic!("faulted replay @ {shards} shards diverged: {err}"));
    }
}

#[test]
fn seluge_capsule_replays_bit_identically_on_sharded_engine() {
    let image = test_image(1024);
    let params = matched_seluge_params(&small_lr(image.len()));
    let deployment = SelugeDeployment::new(&image, params, b"flight recorder");
    let make = |id: NodeId| deployment.node(id, NodeId(0));
    let topology = Topology::grid(6, 10.0, 77);
    let captured = SimBuilder::new(topology.clone(), 7, make)
        .shards(2)
        .collect_trace(true)
        .run_sharded(deadline(), |_, _| ());
    assert_eq!(captured.report.outcome, Outcome::Complete);
    let capsule = Capsule {
        seed: 7,
        engine: SHARDED_ENGINE.to_string(),
        shards: 2,
        deadline: deadline(),
        config: SimConfig::default(),
        topology,
        faults: FaultPlan::new(),
        scenario: vec![("scheme".to_string(), "seluge".to_string())],
        digests: vec![EngineDigest {
            engine: SHARDED_ENGINE.to_string(),
            shards: 2,
            digest: RunDigest::compute(
                &captured.report,
                &captured.metrics,
                &captured.trace,
                Some(&captured.keyed_trace),
            ),
        }],
    };
    let restored = Capsule::from_jsonl(&capsule.to_jsonl()).expect("round trip");
    for shards in [1usize, 4] {
        let run = replay_sharded(&restored, shards, make);
        verify_replay(&restored, &run)
            .unwrap_or_else(|err| panic!("seluge replay @ {shards} shards diverged: {err}"));
    }
}

/// A beacon protocol that keeps virtual time moving whether or not
/// progress happens: node 0 is the only source, every node re-arms a
/// periodic timer forever. Crashing node 0 therefore stalls the run
/// (goodput frozen, clock running) instead of draining it.
struct Beacon {
    heard: bool,
}

const TICK: TimerId = TimerId(3);

impl Protocol for Beacon {
    fn on_init(&mut self, ctx: &mut Context<'_>) {
        if ctx.id == NodeId(0) {
            self.heard = true;
        }
        ctx.set_timer(TICK, Duration::from_millis(200));
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _data: &[u8]) {
        self.heard = true;
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerId) {
        if self.heard {
            ctx.broadcast(PacketKind::Data, vec![0x5A; 16]);
        }
        ctx.set_timer(TICK, Duration::from_millis(200));
    }
    fn is_complete(&self) -> bool {
        self.heard
    }
    fn progress(&self) -> u64 {
        u64::from(self.heard)
    }
}

fn beacon_config() -> SimConfig {
    SimConfig {
        max_sim_time: Some(Duration::from_secs(60)),
        stall_window: Some(Duration::from_secs(5)),
        ..SimConfig::default()
    }
}

fn beacon_outcome(faults: &FaultPlan) -> Outcome {
    let mut sim = SimBuilder::new(Topology::star(5), 9, |_| Beacon { heard: false })
        .config(beacon_config())
        .faults(faults.clone())
        .build();
    sim.run(Duration::from_secs(120)).outcome
}

#[test]
fn shrinker_reduces_failing_chaos_plan_to_minimal_reproducer() {
    // One culprit — the permanent crash of the only source — buried in
    // 40 decoy events that never prevent completion on their own.
    let mut plan = FaultPlan::new();
    for i in 0..10u32 {
        let node = NodeId(1 + (i % 4));
        let at = SimTime(200_000 + u64::from(i) * 130_000);
        plan.crash_and_reboot(node, at, Duration::from_millis(700));
        plan.link_outage(
            NodeId(1 + (i % 4)),
            NodeId(1 + ((i + 1) % 4)),
            SimTime(150_000 + u64::from(i) * 90_000),
            Duration::from_millis(400),
        );
    }
    plan.crash(NodeId(0), SimTime(100_000));
    let original = plan.len();
    assert!(original >= 41, "expected a large haystack, got {original}");
    assert_eq!(beacon_outcome(&plan), Outcome::Stalled);

    let (shrunk, stats) = shrink_fault_plan(&plan, |candidate| {
        beacon_outcome(candidate) == Outcome::Stalled
    });
    assert_eq!(
        beacon_outcome(&shrunk),
        Outcome::Stalled,
        "shrunk plan must still fail"
    );
    assert!(
        shrunk.len() * 4 <= original,
        "shrunk to {} of {original} events — expected ≤ 25%",
        shrunk.len()
    );
    assert_eq!(stats.from, original);
    assert_eq!(stats.to, shrunk.len());
    // The actual 1-minimal answer is the single crash of the source.
    assert_eq!(shrunk.len(), 1);
}

#[test]
fn stalled_sharded_run_dumps_a_loadable_capsule() {
    let path = unique_path("stall-sharded.lrsc");
    let _ = std::fs::remove_file(&path);
    let mut faults = FaultPlan::new();
    faults.crash(NodeId(0), SimTime(100_000));
    let run = SimBuilder::new(Topology::star(5), 9, |_| Beacon { heard: false })
        .config(beacon_config())
        .faults(faults)
        .shards(2)
        .collect_trace(true)
        .capsule_on_failure(&path)
        .scenario("protocol", "beacon")
        .run_sharded(Duration::from_secs(120), |_, b| b.heard);
    assert_eq!(run.report.outcome, Outcome::Stalled);

    let capsule = Capsule::load(&path).expect("failure capsule must load");
    std::fs::remove_file(&path).ok();
    assert_eq!(capsule.engine, SHARDED_ENGINE);
    assert_eq!(capsule.shards, 2);
    assert_eq!(capsule.scenario_value("protocol"), Some("beacon"));
    assert_eq!(capsule.faults.len(), 1);
    let recorded = capsule.digest_for(SHARDED_ENGINE).expect("sharded digest");
    assert_eq!(recorded.digest.outcome, "stalled");
    // The capsule must reproduce the stall bit-identically.
    let replayed = replay_sharded(&capsule, 4, |_| Beacon { heard: false });
    verify_replay(&capsule, &replayed).expect("stall replay diverged");
}

#[test]
fn stalled_sequential_run_dumps_a_loadable_capsule() {
    let path = unique_path("stall-sequential.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut faults = FaultPlan::new();
    faults.crash(NodeId(0), SimTime(100_000));
    let mut sim = SimBuilder::new(Topology::star(5), 9, |_| Beacon { heard: false })
        .config(beacon_config())
        .faults(faults)
        .capsule_on_failure(&path)
        .scenario("protocol", "beacon")
        .build();
    let report = sim.run(Duration::from_secs(120));
    assert_eq!(report.outcome, Outcome::Stalled);

    let capsule = Capsule::load(&path).expect("failure capsule must load");
    std::fs::remove_file(&path).ok();
    assert_eq!(capsule.engine, SEQUENTIAL_ENGINE);
    // The sequential dump digests outcome/time/metrics only (the full
    // trace is not retained on the failure path); replay must still
    // verify against those fields.
    let replayed = replay_sequential(&capsule, |_| Beacon { heard: false });
    verify_replay(&capsule, &replayed).expect("sequential stall replay diverged");
}

#[test]
fn bisector_finds_engine_divergence_but_no_shard_divergence() {
    let capsule = lr_capsule(4, 11);
    let deployment = lr_deployment();
    // The sharded engine is shard-count independent: no divergence.
    assert!(
        bisect_shard_counts(&capsule, 1, 4, |id| deployment.node(id, NodeId(0))).is_none(),
        "shard counts must be lockstep-identical"
    );
    // The two engines intentionally order concurrent events differently;
    // the bisector pinpoints where, with context on both sides.
    let divergence = bisect_engines(&capsule, |id| deployment.node(id, NodeId(0)))
        .expect("engines are expected to diverge in event order");
    assert!(divergence.left.is_some() || divergence.right.is_some());
    let rendered = divergence.to_string();
    assert!(rendered.contains("streams diverge at event"), "{rendered}");
}

/// The capsule `chaos --smoke` rewrites on every run, as committed by
/// an earlier commit: the cross-version format pin.
const COMMITTED_CAPSULE: &str = "results/capsules/chaos-watchdog-demo.jsonl";

#[test]
fn committed_capsule_loads_and_rewrites_byte_for_byte() {
    let text = std::fs::read_to_string(COMMITTED_CAPSULE).expect("committed capsule");
    let capsule = Capsule::from_jsonl(&text).expect("committed capsule loads");
    assert_eq!(capsule.to_jsonl(), text, "writer drifted from the file");
    // The 64-bit patterns in it (`"x_bits":13835058055282163712` is
    // -2.0) survive exactly, and the framed encoding carries the same.
    assert_eq!(capsule.topology.positions()[2].x, -2.0);
    assert_eq!(Capsule::from_framed(&capsule.to_framed()).unwrap(), capsule);
    let tags = ScenarioTags::decode(&capsule).expect("tags decode");
    assert_eq!((tags.scheme.as_str(), tags.image_len), ("lr-seluge", 2048));
}

#[test]
fn mutated_capsules_are_ok_or_err_never_a_panic() {
    let seed_file = std::fs::read(COMMITTED_CAPSULE).expect("committed capsule");
    let mut rng = DetRng::seed_from_u64(0x00C0_FFEE);
    let (mut loaded, mut replayed) = (0, 0);
    for case in 0..4_000 {
        let mut bytes = seed_file.clone();
        for _ in 0..rng.gen_range(1..=3u64) {
            // Odd cases edit any byte (mostly breaking the grammar);
            // even cases edit digits only, so the line still parses
            // and the value checks behind the parser are reached.
            let at = if case % 2 == 0 {
                let digits: Vec<usize> = (0..bytes.len())
                    .filter(|&i| bytes[i].is_ascii_digit())
                    .collect();
                digits[rng.gen_range(0..digits.len() as u64) as usize]
            } else {
                rng.gen_range(0..bytes.len() as u64) as usize
            };
            let fresh = if case % 2 == 0 {
                b'0' + rng.gen_range(0..10u64) as u8
            } else {
                const ALPHABET: &[u8] = b"0123456789\"{}[]:,-e.\\\n x";
                ALPHABET[rng.gen_range(0..ALPHABET.len() as u64) as usize]
            };
            match rng.gen_range(0..3u64) {
                0 if case % 2 == 0 => bytes[at] = fresh,
                0 => bytes[at] ^= 1 << rng.gen_range(0..8u64),
                1 => bytes.insert(at, fresh),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        // Non-UTF-8 is `Capsule::load`'s `BadFrame`, before any parser.
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        let Ok(capsule) = Capsule::from_jsonl(&text) else {
            continue;
        };
        loaded += 1;
        if ScenarioTags::decode(&capsule).is_ok() && loaded % 16 == 0 {
            // What loads must also run: every id, probability and
            // shard count the engines index or sample was checked.
            let _ = replay_capsule(&capsule, &capsule.engine, capsule.shards);
            replayed += 1;
        }
    }
    assert!(
        loaded > 500,
        "only {loaded} mutants loaded: the loop lost its reach"
    );
    assert!(replayed > 30, "only {replayed} mutants replayed");
}
