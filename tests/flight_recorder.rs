//! Flight-recorder end-to-end tests: capture → capsule → replay
//! bit-identity for both schemes, metrics-only failure digests, the
//! harness's failure capsule for the committed watchdog demo, capsules
//! from the removed sharded engine, the degrade draws of the swarm
//! grid's first job, the paper-geometry probe world's digest, and the
//! `replay --summary` rows checked against each other.

use lr_seluge::Deployment;
use lrs_bench::campaign::Campaign;
use lrs_bench::capsules::{
    chaos_sim_config, population, replay_capsule, replay_observed, scale_params as small_lr,
    ItemSummary, LrScheme, ScenarioTags,
};
use lrs_bench::runner::simulate;
use lrs_bench::{matched_seluge_params, CampaignSpec};
use lrs_host::node::{Context, NodeId, PacketKind, Protocol, TimerId};
use lrs_host::time::{Duration, SimTime};
use lrs_host::violation::ContentDigest;
use lrs_netsim::capsule::{Capsule, RunDigest};
use lrs_netsim::fault::{FaultEvent, FaultPlan};
use lrs_netsim::replay::{verify_replay, ReplayError, ReplayRun};
use lrs_netsim::sim::{Outcome, SimConfig};
use lrs_netsim::topology::Topology;
use lrs_netsim::trace::TraceDigest;
use lrs_netsim::SimBuilder;
use lrs_rng::DetRng;
use lrs_seluge::SelugeDeployment;

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

fn grid() -> Topology {
    Topology::grid(6, 10.0, 77)
}

/// Re-executes `capsule` with `make`'s nodes, digesting the trace as it
/// streams by.
fn replay<P: Protocol + 'static>(capsule: &Capsule, make: impl FnMut(NodeId) -> P) -> ReplayRun {
    let trace = TraceDigest::default();
    let mut sim = SimBuilder::new(capsule.topology.clone(), capsule.seed, make)
        .config(capsule.config)
        .faults(capsule.faults.clone())
        .trace(trace.clone())
        .build();
    let report = sim.run(capsule.deadline);
    let metrics = sim.metrics().clone();
    let digest = RunDigest::compute(&report, &metrics, &trace);
    ReplayRun {
        report,
        metrics,
        digest,
    }
}

/// Job 0 of the committed spec at `path`, as `campaign --export-job 0`
/// prints it (before its digest is pinned).
fn job0(path: &str) -> Capsule {
    let text = std::fs::read_to_string(path).expect("committed spec");
    let spec = CampaignSpec::parse(&text).expect("spec parses");
    Campaign::offline(spec, std::path::PathBuf::new())
        .job_capsule(0)
        .expect("job 0")
}

/// Runs a `scheme` population on `grid()` from `seed` under `faults`
/// (with whatever else `arm` attaches) to completion and packages it as
/// a capsule with the run's digest, digested by hand rather than
/// through `replay`.
fn capture<P: Protocol + 'static, F: FnMut(NodeId) -> P>(
    scheme: &str,
    seed: u64,
    faults: FaultPlan,
    make: F,
    arm: impl FnOnce(SimBuilder<P, F>) -> SimBuilder<P, F>,
) -> Capsule {
    let trace = TraceDigest::default();
    let builder = SimBuilder::new(grid(), seed, make).faults(faults.clone());
    let mut sim = arm(builder).trace(trace.clone()).build();
    let report = sim.run(deadline());
    assert_eq!(report.outcome, Outcome::Complete);
    assert!(report.violation.is_none(), "zero violations expected");
    Capsule {
        seed,
        deadline: deadline(),
        config: SimConfig::default(),
        topology: grid(),
        faults,
        scenario: vec![("scheme".to_string(), scheme.to_string())],
        digest: Some(RunDigest::compute(&report, sim.metrics(), &trace)),
    }
}

#[test]
fn lr_capsule_replays_bit_identically() {
    let deployment = lr_deployment();
    let make = |id: NodeId| deployment.node(id, NodeId(0));
    let capsule = capture("lr-seluge", 42, FaultPlan::new(), make, |b| b);
    // The capsule must survive a serialization round trip before the
    // replay, so what is verified is what a file would carry.
    let restored = Capsule::from_jsonl(&capsule.to_jsonl()).expect("round trip");
    assert_eq!(restored, capsule);
    verify_replay(&restored, &replay(&restored, make)).expect("replay diverged");
}

#[test]
fn lr_capsule_with_faults_replays_bit_identically() {
    // Chaos in the capture (with the per-delivery invariant checker
    // armed: it must stay silent) must be reproduced exactly by the
    // replay, because the capsule carries the full fault schedule.
    let mut faults = FaultPlan::new();
    faults.crash_and_reboot(NodeId(7), SimTime(400_000), Duration::from_secs(2));
    faults.crash(NodeId(34), SimTime(700_000));
    faults.link_outage(
        NodeId(35),
        NodeId(29),
        SimTime(300_000),
        Duration::from_secs(1),
    );
    let deployment = lr_deployment();
    let make = |id: NodeId| deployment.node(id, NodeId(0));
    let (artifacts, image) = (deployment.artifacts().clone(), test_image(1024));
    let capsule = capture("lr-seluge", 3, faults, make, |builder| {
        builder.invariants(move |node: &lr_seluge::deployment::LrNode, _| {
            node.scheme().verify_invariants(&artifacts, &image)
        })
    });
    assert_eq!(capsule.faults.len(), 5);
    let restored = Capsule::from_jsonl(&capsule.to_jsonl()).expect("round trip");
    assert_eq!(restored, capsule);
    verify_replay(&restored, &replay(&restored, make)).expect("faulted replay diverged");
}

#[test]
fn seluge_capsule_replays_bit_identically() {
    let image = test_image(1024);
    let params = matched_seluge_params(&small_lr(image.len()));
    let deployment = SelugeDeployment::new(&image, params, b"flight recorder");
    let make = |id: NodeId| deployment.node(id, NodeId(0));
    let capsule = capture("seluge", 7, FaultPlan::new(), make, |b| b);
    let restored = Capsule::from_jsonl(&capsule.to_jsonl()).expect("round trip");
    verify_replay(&restored, &replay(&restored, make)).expect("seluge replay diverged");
}

#[test]
fn tagged_capsules_of_both_schemes_replay_with_a_full_trace_digest() {
    // What the `replay` bin does with a capsule, from the scenario tags
    // alone, on a chaos-profile run with churn on every fault path:
    // one receiver reboots, one stays down, the spare's uplink flaps.
    let mut faults = FaultPlan::new();
    faults.crash_and_reboot(NodeId(3), SimTime(2_000_000), Duration::from_secs(5));
    faults.crash(NodeId(7), SimTime(4_000_000));
    faults.link_outage(
        NodeId(9),
        NodeId(0),
        SimTime(1_000_000),
        Duration::from_secs(3),
    );
    // Trace lengths as the removed `replay --smoke` printed them.
    for (scheme, events) in [("lr-seluge", 2074), ("seluge", 2508)] {
        let mut capsule = Capsule {
            seed: 7,
            deadline: Duration::from_secs(3_000),
            config: chaos_sim_config(),
            topology: Topology::star(10),
            faults: faults.clone(),
            scenario: ScenarioTags::new(scheme, "chaos", 2048, "chaos keys").pairs(),
            digest: None,
        };
        let captured = replay_capsule(&capsule).expect("tags rebuild the population");
        assert_eq!(captured.report.outcome, Outcome::Complete, "{scheme}");
        assert_eq!(captured.digest.events, events, "{scheme}");
        capsule.digest = Some(captured.digest);
        let restored = Capsule::from_jsonl(&capsule.to_jsonl()).expect("round trip");
        assert_eq!(restored, capsule, "{scheme}");
        let replayed = replay_capsule(&restored).expect("replays");
        verify_replay(&restored, &replayed).expect("tagged replay diverged");
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
        stall_window: Some(Duration::from_secs(5)),
        ..SimConfig::default()
    }
}

#[test]
fn stalled_run_verifies_against_a_metrics_only_digest() {
    let mut faults = FaultPlan::new();
    faults.crash(NodeId(0), SimTime(100_000));
    let mut capsule = Capsule {
        seed: 9,
        deadline: Duration::from_secs(60),
        config: beacon_config(),
        topology: Topology::star(5),
        faults,
        scenario: Vec::new(),
        digest: None,
    };
    let run = replay(&capsule, |_| Beacon { heard: false });
    assert_eq!(run.report.outcome, Outcome::Stalled);
    assert!(run.digest.events > 0);
    // A failure dump digests outcome/time/metrics only (its trace is not
    // collected); replay must still verify against those fields.
    let (outcome, at) = (run.report.outcome, run.report.final_time);
    capsule.digest = Some(RunDigest::metrics_only(outcome, at, &run.metrics));
    let capsule = Capsule::from_jsonl(&capsule.to_jsonl()).expect("round trip");
    let replayed = replay(&capsule, |_| Beacon { heard: false });
    verify_replay(&capsule, &replayed).expect("stall replay diverged");
}

/// The watchdog demo's capsule as committed in capsule format version
/// 1: the reader's cross-version fixture, which
/// `partitioned_star_stalls_and_rewrites_the_committed_capsule` must
/// reproduce.
const COMMITTED_CAPSULE: &str = "results/capsules/chaos-watchdog-demo.jsonl";

/// FNV-1a of the committed capsule rewritten as version 2: the writer's
/// byte pin.
const REWRITTEN_CAPSULE: ContentDigest = ContentDigest(0xc211_ff90_437d_444c);

#[test]
fn partitioned_star_stalls_and_rewrites_the_committed_capsule() {
    // Cut the base station off in both directions, forever: receivers
    // keep advertising and requesting but can never make progress, so
    // the watchdog must end the run instead of letting it spin to the
    // deadline, and `replay --summary` of the committed capsule must
    // show where each node is stuck.
    let tags = ScenarioTags::new("lr-seluge", "chaos", 2048, "chaos keys");
    let pop = population::<LrScheme>(&tags).expect("chaos profile");
    let topo = Topology::star(4);
    let mut faults = FaultPlan::new();
    for i in 1..topo.len() as u32 {
        for (from, to) in [(NodeId(0), NodeId(i)), (NodeId(i), NodeId(0))] {
            faults.push(FaultEvent::LinkDown {
                from,
                to,
                at: SimTime(2_000_000),
            });
        }
    }
    let capsule = Capsule {
        seed: 3,
        deadline: Duration::from_secs(3_000),
        config: SimConfig {
            stall_window: Some(Duration::from_secs(60)),
            ..chaos_sim_config()
        },
        topology: topo,
        faults,
        scenario: tags.pairs(),
        digest: None,
    };
    let done = simulate(&pop, &capsule, false, Vec::new());
    assert_eq!(done.report.outcome, Outcome::Stalled);
    let committed = Capsule::load(COMMITTED_CAPSULE).expect("committed capsule");
    assert_eq!(
        done.failure_capsule(&capsule),
        Some(committed.clone()),
        "the run drifted from {COMMITTED_CAPSULE}"
    );
    let (_, rows, _) = replay_observed(&committed, Vec::new()).expect("replays");
    assert_eq!(rows.len(), 4);
    for (id, row) in rows.iter().enumerate() {
        let node = done.sim.node(NodeId(id as u32)).honest().expect("honest");
        let row = row.as_ref().expect("an honest row");
        assert_eq!(row.detail, node.diagnostic(), "n{id}");
    }
    let mut receivers = rows[1..].iter().flatten();
    assert!(receivers.any(|row| !row.detail.ends_with(" complete")));
}

/// The swarm grid's first job: `star:16` with ~10 % of directed links
/// degraded. No committed golden has a `degrade` cell, so this pins the
/// simulator's degradation draws.
#[test]
fn swarm_grid_degrade_job_replays_to_its_pinned_digest() {
    let capsule = job0("examples/campaign/swarm.toml");
    assert_eq!(capsule.topology.len(), 16);
    assert_eq!(capsule.faults.len(), 17, "degraded links");
    let run = replay_capsule(&capsule).expect("replays");
    assert_eq!(
        run.digest,
        RunDigest {
            outcome: "complete".to_string(),
            final_time: SimTime(573_919_801),
            events: 9_167,
            trace: ContentDigest(0x6ebf_cde0_61cf_5493),
            metrics: ContentDigest(0xc38c_3e29_554c_e096),
        }
    );
}

/// The world the retired `probe 60 1 0.3` built, as a one-job spec: its
/// `--trace` file (464 318 lines, 37 609 572 bytes) pinned these values,
/// and `replay --trace` of the exported job writes it byte for byte.
#[test]
fn probe_world_replays_to_its_pinned_digest() {
    let capsule = job0("examples/campaign/probe.toml");
    assert_eq!(capsule.topology.len(), 61);
    let run = replay_capsule(&capsule).expect("replays");
    assert_eq!(
        run.digest,
        RunDigest {
            outcome: "complete".to_string(),
            final_time: SimTime(260_641_390),
            events: 464_317,
            trace: ContentDigest(0x9987_e36b_ae7f_4e0a),
            metrics: ContentDigest(0xe51d_6d65_37f8_6525),
        }
    );
}

/// `replay --summary`'s item rows come from trace notes, its node rows
/// from the engine's counters: they must tell the same story.
#[test]
fn summary_rows_agree_with_node_counters_for_all_three_schemes() {
    let spec = CampaignSpec::parse(
        "name = \"summary\"\nschemes = [\"lr-seluge\", \"seluge\", \"deluge\"]\n\
         topologies = [\"star:6\"]\nloss_ppm = [100000]\nseeds = 1",
    )
    .expect("spec parses");
    let campaign = Campaign::offline(spec, std::path::PathBuf::new());
    // The signing schemes' base station opens with its signature packet,
    // which counts as sent data but is no scheduler pick.
    for (job, (scheme, opening)) in [("lr-seluge", 1), ("seluge", 1), ("deluge", 0)]
        .into_iter()
        .enumerate()
    {
        let capsule = campaign.job_capsule(job).expect("job");
        let summary = ItemSummary::default();
        let (run, nodes, _) =
            replay_observed(&capsule, vec![Box::new(summary.clone())]).expect("replays");
        assert_eq!(run.report.outcome, Outcome::Complete, "{scheme}");
        let (items, nodes): (_, Vec<_>) = (summary.rows(), nodes.into_iter().flatten().collect());
        assert_eq!(nodes.len(), capsule.topology.len(), "{scheme}");
        let total = |f: fn(&lrs_deluge::engine::NodeStats) -> u64| -> u64 {
            nodes.iter().map(|n| f(&n.stats)).sum()
        };
        let sched_tx: u64 = items.values().map(|i| i.sched_tx).sum();
        assert_eq!(sched_tx + opening, total(|s| s.data_sent), "{scheme}");
        let snacks: u64 = items.values().map(|i| i.snacks).sum();
        assert_eq!(snacks, total(|s| s.snacks_sent), "{scheme}");
        let sent = run.metrics.tx_packets(PacketKind::Snack);
        assert_eq!(snacks, sent, "{scheme}");
        // Every complete receiver completed the last item; the base
        // station (node 0) started with it.
        let complete = nodes.iter().filter(|n| n.level == nodes[0].level).count() as u64;
        let (_, last) = items.last_key_value().expect("items");
        assert_eq!(last.completers, complete - 1, "{scheme}");
    }
}

#[test]
fn committed_capsule_loads_and_rewrites_byte_for_byte() {
    let text = std::fs::read_to_string(COMMITTED_CAPSULE).expect("committed capsule");
    let capsule = Capsule::from_jsonl(&text).expect("committed capsule loads");
    // Version 1 ran to the smaller of its two limits.
    assert_eq!(capsule.deadline, Duration::from_secs(3_000));
    let rewritten = capsule.to_jsonl();
    assert!(rewritten.starts_with(r#"{"ev":"capsule","version":2,"#));
    for dropped in [
        "engine",
        "shards",
        "rng_streams",
        "diag_events",
        "max_sim_time_us",
        "order",
    ] {
        assert!(
            !rewritten.contains(&format!("\"{dropped}\"")),
            "{dropped}: {rewritten}"
        );
    }
    let again = Capsule::from_jsonl(&rewritten).expect("version 2 loads");
    assert_eq!(again, capsule);
    assert_eq!(again.to_jsonl(), rewritten, "writer is not a fixed point");
    assert_eq!(
        ContentDigest::of(rewritten.as_bytes()),
        REWRITTEN_CAPSULE,
        "the capsule writer drifted:\n{rewritten}"
    );
    // The 64-bit patterns in it (`"x_bits":13835058055282163712` is
    // -2.0) survive exactly.
    assert_eq!(capsule.topology.positions()[2].x, -2.0);
    let tags = ScenarioTags::decode(&capsule).expect("tags decode");
    assert_eq!((tags.scheme.as_str(), tags.image_len), ("lr-seluge", 2048));
}

#[test]
fn capsule_from_the_removed_sharded_engine_replays_with_no_digest_to_verify() {
    // The committed capsule as the sharded engine would have written
    // it: its own engine label and shard count, its own digest line
    // (non-zero `order`), no sequential one.
    let text = std::fs::read_to_string(COMMITTED_CAPSULE)
        .expect("committed capsule")
        .replace(
            r#""engine":"sequential","shards":1,"#,
            r#""engine":"sharded","shards":4,"#,
        )
        .replace(
            r#""order":"0000000000000000""#,
            r#""order":"1f2e3d4c5b6a7988""#,
        );
    assert_eq!(text.matches(r#""engine":"sharded""#).count(), 2);
    let capsule = Capsule::from_jsonl(&text).expect("legacy capsule loads");
    assert_eq!(capsule.digest, None);
    let run = replay_capsule(&capsule).expect("legacy capsule replays");
    assert_eq!(run.report.outcome, Outcome::Stalled);
    assert_eq!(
        verify_replay(&capsule, &run),
        Err(ReplayError::NoRecordedDigest)
    );
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
        // Non-UTF-8 is `Capsule::load`'s `NotUtf8`, before any parser.
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        let Ok(capsule) = Capsule::from_jsonl(&text) else {
            continue;
        };
        loaded += 1;
        if ScenarioTags::decode(&capsule).is_ok() && loaded % 16 == 0 {
            // What loads must also run: every id and probability the
            // engine indexes or samples was checked.
            let _ = replay_capsule(&capsule);
            replayed += 1;
        }
    }
    assert!(
        loaded > 500,
        "only {loaded} mutants loaded: the loop lost its reach"
    );
    assert!(replayed > 30, "only {replayed} mutants replayed");
}
