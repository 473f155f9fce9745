//! Determinism regression tests.
//!
//! The whole experiment pipeline rests on two properties:
//!
//! 1. A given seed produces bit-identical [`ExperimentMetrics`] every
//!    time — same machine, same run order, or not.
//! 2. The parallel harness does not change results: fanning seeds out
//!    over N workers yields exactly what a sequential loop yields.
//! 3. Attaching a trace sink is observational only — it never perturbs
//!    the simulation it watches.

use lr_seluge::{Deployment, LrScheme};
use lrs_bench::capsules::chaos_params;
use lrs_bench::runner::test_image;
use lrs_bench::{run, run_lr, sample_grid, sample_seeds, Matched, RunSpec};
use lrs_deluge::image::DelugeScheme;
use lrs_host::node::{NodeId, PacketKind};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::SimConfig;
use lrs_seluge::SelugeScheme;

use lrs_host::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::trace::{JsonlTrace, RingTrace, TraceSink};
use lrs_netsim::SimBuilder;

/// A seed reproduces family `S`'s run bit for bit, and a different seed
/// actually changes something.
fn runs_are_bit_identical_across_repeats<S: Matched>() {
    let spec = RunSpec::one_hop(3, 0.15);
    let params = S::matched(&chaos_params(1024));
    let a = run::<S>(&spec, params, 7);
    assert_eq!(a, run::<S>(&spec, params, 7), "{}", S::NAME);
    assert_ne!(a, run::<S>(&spec, params, 8), "{}", S::NAME);
}

#[test]
fn lr_runs_are_bit_identical_across_repeats() {
    runs_are_bit_identical_across_repeats::<LrScheme>();
}

#[test]
fn seluge_runs_are_bit_identical_across_repeats() {
    runs_are_bit_identical_across_repeats::<SelugeScheme>();
}

#[test]
fn deluge_runs_are_bit_identical_across_repeats() {
    runs_are_bit_identical_across_repeats::<DelugeScheme>();
}

#[test]
fn thread_count_does_not_change_per_seed_metrics() {
    let spec = RunSpec::one_hop(3, 0.2);
    let sequential = sample_seeds(4, 1, |seed| run_lr(&spec, chaos_params(1024), seed));
    for threads in [2, 4, 8] {
        let parallel = sample_seeds(4, threads, |seed| run_lr(&spec, chaos_params(1024), seed));
        assert_eq!(sequential, parallel, "{threads} threads diverged");
    }
}

#[test]
fn grid_fanout_matches_sequential_sweep() {
    let points = [0.0f64, 0.2, 0.4];
    let par = sample_grid(&points, 2, 8, |&p, seed| {
        run_lr(&RunSpec::one_hop(2, p), chaos_params(1024), seed)
    });
    let seq: Vec<Vec<_>> = points
        .iter()
        .map(|&p| {
            (1..=2)
                .map(|seed| run_lr(&RunSpec::one_hop(2, p), chaos_params(1024), seed))
                .collect()
        })
        .collect();
    assert_eq!(par, seq);
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
    let bare = traced_run(None::<RingTrace>);
    let ringed = traced_run(Some(RingTrace::new(512)));
    let jsonl = traced_run(Some(JsonlTrace::new(Vec::new())));
    assert_eq!(bare, ringed);
    assert_eq!(bare, jsonl);
}

/// A sink that shares its event log with the test.
struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<lrs_netsim::trace::TraceEvent>>>);

impl TraceSink for SharedSink {
    fn record(&mut self, event: &lrs_netsim::trace::TraceEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
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
    let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut sim = SimBuilder::new(Topology::star(4), 1, |id| deployment.node(id, NodeId(0)))
        .config(cfg)
        .trace(SharedSink(events.clone()))
        .build();
    let report = sim.run(Duration::from_secs(100_000));
    assert!(report.all_complete);
    drop(sim);

    let events = events.lock().unwrap();
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
