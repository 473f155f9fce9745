//! Cross-crate property tests: the end-to-end pipeline invariants hold
//! for randomized images, parameters and loss patterns.

use lr_seluge::{Deployment, LrSelugeParams};
use lrs_host::node::{NodeId, Protocol};
use lrs_netsim::capsule::Capsule;
use lrs_netsim::fault::{FaultConfig, FaultPlan};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::SimConfig;

use lrs_host::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;
use lrs_rng::DetRng;

fn arbitrary_params(rng: &mut DetRng) -> (LrSelugeParams, u64) {
    let k = rng.gen_range(2u16..10);
    let spare = rng.gen_range(1u16..6);
    let payload = rng.gen_range(24usize..64);
    let pages_approx = rng.gen_range(1usize..4);
    let seed = rng.gen_range(0u64..1_000);
    let n = k + spare;
    let k0 = 2u16;
    let n0 = 4u16;
    let probe = LrSelugeParams {
        version: 1,
        image_len: 1, // fixed below
        k,
        n,
        payload_len: payload.max((n as usize * 8 / k as usize) + 9),
        k0,
        n0,
        puzzle_strength: 4,
        ..LrSelugeParams::default()
    };
    let image_len = probe.page_capacity() * pages_approx - 3;
    (LrSelugeParams { image_len, ..probe }, seed)
}

/// Preprocess → disseminate over a lossy one-hop link → every node
/// reconstructs the image byte-for-byte, for arbitrary geometry.
#[test]
fn pipeline_roundtrip_arbitrary_geometry() {
    let mut rng = DetRng::seed_from_u64(0x7069_7065);
    let mut cases = 0;
    while cases < 12 {
        let (params, seed) = arbitrary_params(&mut rng);
        if params.validate().is_err() {
            continue;
        }
        cases += 1;
        let image: Vec<u8> = (0..params.image_len as u64)
            .map(|i| (i.wrapping_mul(seed | 1) >> 3) as u8)
            .collect();
        let deployment = Deployment::new(&image, params, b"prop");
        let cfg = SimConfig {
            medium: MediumConfig {
                app_loss: 0.25,
                ..MediumConfig::default()
            },
            ..SimConfig::default()
        };
        let mut sim = SimBuilder::new(Topology::star(4), seed, |id| deployment.node(id, NodeId(0)))
            .config(cfg)
            .build();
        let report = sim.run(Duration::from_secs(100_000));
        assert!(report.all_complete, "stalled: params {params:?}");
        for i in 1..4u32 {
            let got = sim.node(NodeId(i)).scheme().image();
            assert_eq!(got.as_deref(), Some(&image[..]));
        }
    }
}

fn arbitrary_fault_config(rng: &mut DetRng) -> FaultConfig {
    let reboot_after = if rng.gen_range(0u32..3) == 0 {
        None
    } else {
        let lo = rng.gen_range(1u64..4);
        Some((Duration::from_secs(lo), Duration::from_secs(lo + 4)))
    };
    FaultConfig {
        crash_rate: rng.gen_range(0u32..80) as f64 / 100.0,
        reboot_after,
        link_flap_rate: rng.gen_range(0u32..60) as f64 / 100.0,
        down_sojourn: Duration::from_secs(rng.gen_range(1u64..6)),
        up_sojourn: Duration::from_secs(rng.gen_range(2u64..12)),
        degrade_rate: rng.gen_range(0u32..50) as f64 / 100.0,
        drift_ppm: rng.gen_range(0u32..200_000),
        horizon: Duration::from_secs(rng.gen_range(5u64..30)),
        ..FaultConfig::default()
    }
}

fn arbitrary_topology(rng: &mut DetRng) -> Topology {
    match rng.gen_range(0u32..3) {
        0 => Topology::star(rng.gen_range(3usize..8)),
        1 => Topology::line(rng.gen_range(3usize..7), 1.0),
        _ => Topology::grid(3, 10.0, rng.gen_range(0u64..100)),
    }
}

/// Any generated `FaultPlan` survives a trip through a capsule's JSONL
/// form, the path plans take to disk, bit-identically, and the
/// deserialized plan replays to the exact same simulation outcome as
/// the original.
#[test]
fn fault_plans_round_trip_and_replay_identically() {
    let mut rng = DetRng::seed_from_u64(0x7069_7065);
    let params = LrSelugeParams {
        image_len: 512,
        k: 8,
        n: 12,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 4,
        ..LrSelugeParams::default()
    };
    let image: Vec<u8> = (0..512u32).map(|i| (i * 31 % 253) as u8).collect();
    for case in 0..12u64 {
        let config = arbitrary_fault_config(&mut rng);
        let topology = arbitrary_topology(&mut rng);
        let plan = FaultPlan::generate(&config, &topology, case);
        let capsule = Capsule {
            seed: case,
            deadline: Duration::from_secs(2_000),
            config: SimConfig::default(),
            topology: topology.clone(),
            faults: plan.clone(),
            scenario: Vec::new(),
            digest: None,
        };
        let parsed = Capsule::from_jsonl(&capsule.to_jsonl())
            .expect("parseable")
            .faults;
        assert_eq!(plan, parsed, "case {case}: round trip changed the plan");

        // Replaying the deserialized plan must be indistinguishable
        // from the original. Run a full sim pair for a third of the
        // cases (the round trip above already covers the rest).
        if case % 3 != 0 {
            continue;
        }
        let run = |p: &FaultPlan| {
            let deployment = Deployment::new(&image, params, b"replay");
            let cfg = SimConfig {
                stall_window: Some(Duration::from_secs(300)),
                ..SimConfig::default()
            };
            let mut sim =
                SimBuilder::new(topology.clone(), case, |id| deployment.node(id, NodeId(0)))
                    .config(cfg)
                    .faults(p.clone())
                    .build();
            let report = sim.run(Duration::from_secs(2_000));
            let progress: Vec<u64> = (0..topology.len() as u32)
                .map(|i| sim.node(NodeId(i)).progress())
                .collect();
            (
                report.outcome,
                report.all_complete,
                report.final_time,
                report.latency,
                sim.reboots(),
                progress,
            )
        };
        assert_eq!(
            run(&plan),
            run(&parsed),
            "case {case}: replay diverged from the original plan"
        );
    }
}

#[test]
fn latency_is_monotone_ish_in_loss() {
    // Averaged over seeds, more loss never makes dissemination faster by
    // a large factor (sanity: the loss process is actually wired in).
    let params = LrSelugeParams {
        image_len: 2048,
        k: 8,
        n: 12,
        payload_len: 56,
        k0: 4,
        n0: 8,
        puzzle_strength: 4,
        ..LrSelugeParams::default()
    };
    let image: Vec<u8> = (0..2048u32).map(|i| i as u8).collect();
    let mean_latency = |p: f64| -> f64 {
        let mut total = 0.0;
        let runs = 3;
        for seed in 0..runs {
            let deployment = Deployment::new(&image, params, b"mono");
            let cfg = SimConfig {
                medium: MediumConfig {
                    app_loss: p,
                    ..MediumConfig::default()
                },
                ..SimConfig::default()
            };
            let mut sim =
                SimBuilder::new(Topology::star(5), seed, |id| deployment.node(id, NodeId(0)))
                    .config(cfg)
                    .build();
            let report = sim.run(Duration::from_secs(100_000));
            assert!(report.all_complete);
            total += report.latency.expect("complete").as_secs_f64();
        }
        total / runs as f64
    };
    let low = mean_latency(0.0);
    let high = mean_latency(0.5);
    assert!(
        high > low,
        "heavy loss should slow dissemination: p=0 {low:.1}s vs p=0.5 {high:.1}s"
    );
}
