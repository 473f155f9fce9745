//! Determinism regression tests.
//!
//! The whole experiment pipeline rests on three properties:
//!
//! 1. A given seed produces bit-identical job records every time — same
//!    machine, same run order, or not.
//! 2. The parallel harness does not change results: fanning a cell's
//!    jobs, or an experiment's cells, out over N workers yields exactly
//!    what a sequential run yields.
//! 3. Attaching a trace sink is observational only — it never perturbs
//!    the simulation it watches.

use lr_seluge::Deployment;
use lrs_bench::campaign::{Campaign, JobRecord};
use lrs_bench::capsules::chaos_params;
use lrs_bench::paper::cell;
use lrs_bench::runner::test_image;
use lrs_bench::{run_cells, CampaignSpec};
use lrs_host::node::{NodeId, PacketKind};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::SimConfig;
use std::path::{Path, PathBuf};

use lrs_host::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::trace::{JsonlTrace, TraceLog, TraceSink};
use lrs_netsim::SimBuilder;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lrs-determinism-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `chaos`-profile cell of `scheme` on a star of `receivers` at
/// loss `p`, jobs running seeds `1..=seeds`.
fn chaos_cell(name: &str, scheme: &str, receivers: usize, p: f64, seeds: u64) -> CampaignSpec {
    let topology = format!("star:{}", receivers + 1);
    CampaignSpec {
        profile: "chaos".into(),
        ..cell(name.to_string(), scheme, topology, p, 1024, seeds)
    }
}

/// `spec`'s job records, run on `threads` workers in a fresh directory.
fn run_campaign(spec: CampaignSpec, threads: usize, name: &str) -> Vec<JobRecord> {
    let dir = scratch(name);
    let campaign = Campaign::create(spec, &dir).expect("create");
    let records = campaign
        .run(threads, None)
        .expect("run")
        .expect("done")
        .records;
    std::fs::remove_dir_all(&dir).expect("clean up");
    records
}

/// The job records `dir`'s campaign logged, in job-id order.
fn logged(dir: &Path) -> Vec<JobRecord> {
    let mut records = Campaign::resume(dir)
        .and_then(|c| c.completed())
        .expect("log reads");
    records.sort_by_key(|r| r.job);
    records
}

/// A cell's job reproduces family `scheme`'s run bit for bit, and a
/// different seed actually changes something.
fn runs_are_bit_identical_across_repeats(scheme: &str) {
    let spec = chaos_cell(scheme, scheme, 3, 0.15, 2);
    let a = run_campaign(spec.clone(), 1, &format!("{scheme}-a"));
    assert_eq!(a, run_campaign(spec, 1, &format!("{scheme}-b")), "{scheme}");
    assert_eq!((a[0].seed, a[1].seed), (1, 2));
    assert_ne!(a[0].metrics, a[1].metrics, "{scheme}");
}

#[test]
fn lr_runs_are_bit_identical_across_repeats() {
    runs_are_bit_identical_across_repeats("lr-seluge");
}

#[test]
fn seluge_runs_are_bit_identical_across_repeats() {
    runs_are_bit_identical_across_repeats("seluge");
}

#[test]
fn deluge_runs_are_bit_identical_across_repeats() {
    runs_are_bit_identical_across_repeats("deluge");
}

#[test]
fn thread_count_does_not_change_per_seed_metrics() {
    let spec = chaos_cell("threads", "lr-seluge", 3, 0.2, 4);
    let sequential = run_campaign(spec.clone(), 1, "threads-1");
    for threads in [2, 4, 8] {
        let parallel = run_campaign(spec.clone(), threads, &format!("threads-{threads}"));
        assert_eq!(sequential, parallel, "{threads} threads diverged");
    }
}

#[test]
fn grid_fanout_matches_sequential_sweep() {
    let cells: Vec<CampaignSpec> = [0.0f64, 0.2, 0.4]
        .iter()
        .map(|&p| chaos_cell(&format!("p{p}"), "lr-seluge", 2, p, 2))
        .collect();
    let (fanned, one) = (scratch("fanned"), scratch("one"));
    let par = run_cells(&cells, &fanned, 8);
    let seq: Vec<_> = cells
        .iter()
        .map(|spec| run_cells(std::slice::from_ref(spec), &one, 1).remove(0))
        .collect();
    assert_eq!(par, seq);
    // Equal summaries need not come from equal records: compare every
    // job's seed, outcome and metric bits too.
    for spec in &cells {
        let (a, b) = (
            logged(&fanned.join(&spec.name)),
            logged(&one.join(&spec.name)),
        );
        assert_eq!(a.len(), 2, "{}", spec.name);
        assert_eq!(a, b, "{}", spec.name);
    }
    for dir in [fanned, one] {
        std::fs::remove_dir_all(dir).expect("clean up");
    }
}

/// Runs one tiny LR-Seluge sim, optionally traced, and returns the
/// counters a trace could plausibly perturb.
fn traced_run(
    trace: Option<impl TraceSink + 'static>,
) -> (u64, u64, u64, u64, bool, Option<lrs_host::time::SimTime>) {
    let params = chaos_params(1024);
    let image = test_image(params.image_len);
    let deployment = Deployment::new(&image, params, b"trace test");
    let cfg = SimConfig {
        medium: MediumConfig {
            app_loss: 0.2,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    let builder =
        SimBuilder::new(Topology::star(4), 11, |id| deployment.node(id, NodeId(0))).config(cfg);
    let mut sim = match trace {
        Some(sink) => builder.trace(sink).build(),
        None => builder.build(),
    };
    let report = sim.run(Duration::from_secs(100_000));
    let m = sim.metrics();
    (
        m.total_tx_packets(),
        m.total_tx_bytes(),
        m.rx_packets(),
        m.tx_packets(PacketKind::Snack),
        report.all_complete,
        report.latency,
    )
}

#[test]
fn attaching_a_trace_does_not_change_metrics() {
    let bare = traced_run(None::<TraceLog>);
    let logged = traced_run(Some(TraceLog::default()));
    let jsonl = traced_run(Some(JsonlTrace::new(Vec::new())));
    assert_eq!(bare, logged);
    assert_eq!(bare, jsonl);
}

#[test]
fn trace_sink_sees_every_event_family() {
    use lrs_netsim::trace::TraceEvent;

    let params = chaos_params(1024);
    let image = test_image(params.image_len);
    let deployment = Deployment::new(&image, params, b"trace test");
    let cfg = SimConfig {
        medium: MediumConfig {
            app_loss: 0.3,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    let log = TraceLog::default();
    let mut sim = SimBuilder::new(Topology::star(4), 1, |id| deployment.node(id, NodeId(0)))
        .config(cfg)
        .trace(log.clone())
        .build();
    let report = sim.run(Duration::from_secs(100_000));
    assert!(report.all_complete);
    let events = log.events();
    assert!(!events.is_empty());
    let has = |f: &dyn Fn(&TraceEvent) -> bool| events.iter().any(f);
    assert!(has(&|e| matches!(e, TraceEvent::Tx { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::Rx { .. })));
    assert!(
        has(&|e| matches!(e, TraceEvent::Loss { .. })),
        "p = 0.3 must lose something"
    );
    assert!(has(&|e| matches!(e, TraceEvent::TimerFired { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::NodeComplete { .. })));
    assert!(has(&|e| matches!(
        e,
        TraceEvent::Note { label: "snack", .. }
    )));
    assert!(has(&|e| matches!(
        e,
        TraceEvent::Note {
            label: "page_complete",
            ..
        }
    )));
    assert!(has(&|e| matches!(
        e,
        TraceEvent::Note {
            label: "sched_tx",
            ..
        }
    )));
    // Every delivery outcome correlates back to a recorded transmission.
    // (The stream is emission-ordered, not timestamp-ordered: a Tx event
    // is stamped with its post-CSMA on-air start, which lies ahead of
    // events emitted at the scheduling instant.)
    let tx_ids: std::collections::HashSet<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Tx { tx_id, .. } => Some(*tx_id),
            _ => None,
        })
        .collect();
    for e in events.iter() {
        if let TraceEvent::Rx { tx_id, .. } | TraceEvent::Loss { tx_id, .. } = e {
            assert!(tx_ids.contains(tx_id), "orphan delivery {e:?}");
        }
    }
}
