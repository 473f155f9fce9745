//! The metric vocabulary: every name the benchmark prints, with its
//! unit, direction, and (per layer) how it is measured and which
//! end-to-end metric on which workload it is expected to move.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in
//! step. Later performance issues must claim against these names.

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is rejected.
    pub bound: f64,
    /// What is measured.
    pub definition: &'static str,
}

/// The end-to-end metrics every workload reports (host time).
///
/// `fail_frac` is deliberately not a metric here: the driver's contract
/// requires end-to-end metrics that are never 0, and carries failures in
/// the result line's `attempted` / `failed` fields instead.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "median over the process's 25 set-ups of the in-process work before \
                     the first repetition: image generation, topology build and (grid/node \
                     workloads) key derivation, one-off preprocessing and digest warm; \
                     compilation excluded",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "median over the R repetitions of one workload body's wall time",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "median over R of the body's on-CPU seconds (utime+stime, all threads)",
    },
    EndToEnd {
        name: "goodput_kib_per_s",
        unit: "KiB/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "KiB of image committed and verified byte-equal by honest receivers in one \
                     body, per wall_s",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        definition: "VmHWM of the workload's process after the last repetition",
    },
];

/// How a per-layer metric is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Measured in the traced pass by the wrapper newtypes.
    Span,
    /// Exact for a seed: counting sink, `CryptoCost`, `NodeStats`, `Metrics`.
    Count,
    /// The layer's public entry point timed in isolation on the
    /// workload's shapes.
    Probe,
    /// A count multiplied by a probe.
    Est,
    /// Virtual-time result of the modelled protocol, exact for a seed.
    Sim,
}

impl Kind {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Count => "count",
            Kind::Probe => "probe",
            Kind::Est => "est",
            Kind::Sim => "sim",
        }
    }

    /// Whether two runs of one commit on one seed must agree exactly.
    pub fn is_exact(self) -> bool {
        matches!(self, Kind::Count | Kind::Sim)
    }
}

/// A per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name; the first dotted component is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// How it is obtained.
    pub kind: Kind,
    /// The end-to-end metric and workload it is expected to move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind,
        moves,
    }
}

use Better::{Higher, Lower};
use Kind::{Count, Est, Probe, Sim, Span};

const GRIDS: &str = "wall_s, cpu_s on grid_dense_lr and grid_wide_seluge";
const NODES: &str = "wall_s, goodput_kib_per_s on node_ingest and node_flood";
const NONE: &str = "none (context for reading the others)";

/// Every per-layer metric, in reporting order.
pub const PER_LAYER: [PerLayer; 88] = [
    // netsim
    m("netsim.run.self_s", "s", Lower, Span, GRIDS),
    m("netsim.self_ns_per_event", "ns", Lower, Span, GRIDS),
    m("netsim.events", "count", Lower, Count, GRIDS),
    m("netsim.events_per_s", "1/s", Higher, Span, GRIDS),
    m("netsim.tx", "count", Lower, Count, GRIDS),
    m("netsim.deliveries", "count", Lower, Count, GRIDS),
    m("netsim.rx", "count", Lower, Count, GRIDS),
    m("netsim.loss.collision", "count", Lower, Count, NONE),
    m("netsim.loss.phy", "count", Lower, Count, NONE),
    m("netsim.loss.app_drop", "count", Lower, Count, NONE),
    m("netsim.timers_fired", "count", Lower, Count, GRIDS),
    m("netsim.useful_rx_frac", "ratio", Higher, Count, GRIDS),
    m(
        "netsim.build_s",
        "s",
        Lower,
        Span,
        "wall_s on onehop_mc; setup-like elsewhere",
    ),
    m(
        "netsim.topology.build_s",
        "s",
        Lower,
        Span,
        "setup_s on the grids",
    ),
    m("netsim.medium.deliver_ns", "ns", Lower, Probe, GRIDS),
    m(
        "netsim.medium.begin_broadcast_ns",
        "ns",
        Lower,
        Probe,
        GRIDS,
    ),
    m("netsim.medium.est_busy_s", "s", Lower, Est, GRIDS),
    m("netsim.eventq.push_pop_ns", "ns", Lower, Probe, GRIDS),
    m(
        "netsim.eventq.mean_depth",
        "count",
        Lower,
        Count,
        "peak_rss_mib on the grids",
    ),
    m("netsim.trace.overhead_frac", "ratio", Lower, Span, NONE),
    m("netsim.shard2.wall_s", "s", Lower, Span, "not gating"),
    m(
        "netsim.shard2.wall_ratio",
        "ratio",
        Lower,
        Span,
        "not gating; wall_s, peak_rss_mib on grid_wide_seluge",
    ),
    // sim: the modelled design, virtual time
    m("sim.latency_s", "s", Lower, Sim, NONE),
    m("sim.tx_kib", "KiB", Lower, Sim, NONE),
    m("sim.data_pkts", "count", Lower, Sim, NONE),
    m("sim.snack_pkts", "count", Lower, Sim, NONE),
    m("sim.adv_pkts", "count", Lower, Sim, NONE),
    m("sim.energy_j", "J", Lower, Sim, NONE),
    m("sim.pkts_per_page_decode", "count", Lower, Sim, NONE),
    // deluge
    m(
        "deluge.engine.self_s",
        "s",
        Lower,
        Span,
        "wall_s on both grids and onehop_mc",
    ),
    m("deluge.on_packet.calls", "count", Lower, Count, GRIDS),
    m("deluge.on_packet.busy_s", "s", Lower, Span, GRIDS),
    m("deluge.on_timer.calls", "count", Lower, Count, GRIDS),
    m("deluge.on_timer.busy_s", "s", Lower, Span, GRIDS),
    m("deluge.wire.encode_ns", "ns", Lower, Probe, GRIDS),
    m("deluge.wire.decode_ns", "ns", Lower, Probe, GRIDS),
    m(
        "deluge.policy.union.busy_s",
        "s",
        Lower,
        Span,
        "wall_s on grid_wide_seluge, onehop_mc",
    ),
    m("deluge.node.duplicates", "count", Lower, Count, NONE),
    m("deluge.node.auth_rejects", "count", Lower, Count, NONE),
    m("deluge.node.mac_rejects", "count", Lower, Count, NONE),
    m("deluge.node.snacks_sent", "count", Lower, Count, NONE),
    m(
        "deluge.node.out_of_order_drops",
        "count",
        Lower,
        Count,
        NONE,
    ),
    // core (lr-seluge)
    m(
        "core.scheme.handle_packet.calls",
        "count",
        Lower,
        Count,
        NODES,
    ),
    m("core.scheme.handle_packet.busy_s", "s", Lower, Span, NODES),
    m(
        "core.scheme.packet_payload.calls",
        "count",
        Lower,
        Count,
        NODES,
    ),
    m(
        "core.scheme.packet_payload.busy_s",
        "s",
        Lower,
        Span,
        "wall_s on node_ingest (relay re-encode)",
    ),
    m(
        "core.scheme.wanted.busy_s",
        "s",
        Lower,
        Span,
        "wall_s on grid_dense_lr",
    ),
    m(
        "core.scheme.accept_ns",
        "ns",
        Lower,
        Span,
        "wall_s on node_ingest",
    ),
    m(
        "core.scheme.reject_ns",
        "ns",
        Lower,
        Span,
        "wall_s on node_flood only",
    ),
    m(
        "core.scheme.decode_per_page_us",
        "us",
        Lower,
        Span,
        "wall_s on node_ingest",
    ),
    m(
        "core.scheduler.next.calls",
        "count",
        Lower,
        Count,
        "wall_s on grid_dense_lr",
    ),
    m(
        "core.scheduler.next.busy_s",
        "s",
        Lower,
        Span,
        "wall_s on grid_dense_lr",
    ),
    m(
        "core.scheduler.on_snack.busy_s",
        "s",
        Lower,
        Span,
        "wall_s on grid_dense_lr",
    ),
    m(
        "core.preprocess.build_s",
        "s",
        Lower,
        Span,
        "wall_s on onehop_mc; setup_s on grid_dense_lr, node_*",
    ),
    m(
        "core.preprocess.warm_digest_s",
        "s",
        Lower,
        Span,
        "wall_s on onehop_mc; setup_s on grid_dense_lr",
    ),
    // seluge
    m(
        "seluge.scheme.handle_packet.calls",
        "count",
        Lower,
        Count,
        "wall_s on grid_wide_seluge, onehop_mc",
    ),
    m(
        "seluge.scheme.handle_packet.busy_s",
        "s",
        Lower,
        Span,
        "wall_s on grid_wide_seluge, onehop_mc",
    ),
    m(
        "seluge.scheme.packet_payload.busy_s",
        "s",
        Lower,
        Span,
        "wall_s on grid_wide_seluge, onehop_mc",
    ),
    m(
        "seluge.preprocess.build_s",
        "s",
        Lower,
        Span,
        "wall_s on onehop_mc; setup_s on grid_wide_seluge",
    ),
    // crypto
    m(
        "crypto.hashes",
        "count",
        Lower,
        Count,
        "wall_s on node_flood, node_ingest, onehop_mc",
    ),
    m("crypto.memoized_hashes", "count", Higher, Count, GRIDS),
    m("crypto.digest_hit_frac", "ratio", Higher, Count, GRIDS),
    m(
        "crypto.sig_verifications",
        "count",
        Lower,
        Count,
        "wall_s on onehop_mc, node_*",
    ),
    m(
        "crypto.puzzle_checks",
        "count",
        Lower,
        Count,
        "wall_s on node_flood",
    ),
    m(
        "crypto.sha256.pkt_ns",
        "ns",
        Lower,
        Probe,
        "wall_s on node_flood, node_ingest",
    ),
    m(
        "crypto.sha256.batch8_pkt_ns",
        "ns",
        Lower,
        Probe,
        "wall_s on onehop_mc; setup_s",
    ),
    m(
        "crypto.merkle.verify_ns",
        "ns",
        Lower,
        Probe,
        "wall_s on node_flood",
    ),
    m(
        "crypto.schnorr.verify_us",
        "us",
        Lower,
        Probe,
        "wall_s on onehop_mc, node_*",
    ),
    m(
        "crypto.schnorr.sign_us",
        "us",
        Lower,
        Probe,
        "wall_s on onehop_mc; setup_s",
    ),
    m(
        "crypto.puzzle.check_ns",
        "ns",
        Lower,
        Probe,
        "wall_s on node_flood",
    ),
    m("crypto.cluster.mac_ns", "ns", Lower, Probe, GRIDS),
    m(
        "crypto.est_busy_s",
        "s",
        Lower,
        Est,
        "wall_s on node_flood, node_ingest, onehop_mc",
    ),
    m("crypto.kernel_id", "id", Higher, Count, NONE),
    // erasure
    m(
        "erasure.decodes",
        "count",
        Lower,
        Count,
        "wall_s on node_ingest, onehop_mc",
    ),
    m(
        "erasure.encodes",
        "count",
        Lower,
        Count,
        "wall_s on node_ingest, onehop_mc",
    ),
    m(
        "erasure.rs.encode_us",
        "us",
        Lower,
        Probe,
        "wall_s on node_ingest, onehop_mc",
    ),
    m(
        "erasure.rs.decode_fresh_us",
        "us",
        Lower,
        Probe,
        "wall_s on node_ingest, onehop_mc",
    ),
    m(
        "erasure.rs.decode_repeat_us",
        "us",
        Lower,
        Probe,
        "wall_s on node_ingest",
    ),
    m(
        "erasure.est_busy_s",
        "s",
        Lower,
        Est,
        "wall_s on node_ingest, onehop_mc",
    ),
    m("erasure.kernel_id", "id", Higher, Count, NONE),
    // host (probes only; the UDP swarm is not a workload yet)
    m(
        "host.envelope.encode_ns",
        "ns",
        Lower,
        Probe,
        "none yet (swarm)",
    ),
    m(
        "host.envelope.decode_ns",
        "ns",
        Lower,
        Probe,
        "none yet (swarm)",
    ),
    m(
        "host.timer_wheel.arm_pop_ns",
        "ns",
        Lower,
        Probe,
        "none yet (swarm)",
    ),
    // bench (lrs-bench style per-run walls, and the harness itself)
    m("bench.run_ms_p50", "ms", Lower, Span, "wall_s on onehop_mc"),
    m("bench.run_ms_p90", "ms", Lower, Span, "wall_s on onehop_mc"),
    m("bench.disturbed_reps", "count", Lower, Span, NONE),
    m("bench.harness.self_s", "s", Lower, Span, NONE),
    m("bench.traced_wall_s", "s", Lower, Span, NONE),
];

#[cfg(test)]
/// Whether `name` is acceptable to the driver: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The per-layer entry called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use lrs_bench::{parse_json, Json};
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names_of(manifest: &Json, key: &str) -> Vec<String> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has an array {key:?}"))
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("entry has a name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|p| p.name))
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in all {
            assert!(is_valid_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        assert!(!is_valid_name(""));
        assert!(!is_valid_name(".hidden"));
        assert!(!is_valid_name("has space"));
        assert!(!is_valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let manifest = manifest();
        let e2e: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names_of(&manifest, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|p| p.name).collect();
        assert_eq!(names_of(&manifest, "per_layer"), layers);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names_of(&manifest, "workloads"), workloads);
    }

    #[test]
    fn benchmark_json_units_directions_and_bounds_agree() {
        let manifest = manifest();
        let entries = manifest.get("end_to_end").and_then(Json::as_arr).unwrap();
        for (entry, e) in entries.iter().zip(END_TO_END) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(e.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(e.better.label())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_num), Some(e.bound));
            assert!(e.bound > 0.0 && e.bound <= 0.25);
        }
        let entries = manifest.get("per_layer").and_then(Json::as_arr).unwrap();
        for (entry, p) in entries.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(p.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(p.better.label())
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == Better::Lower));
    }

    #[test]
    fn the_layer_is_the_first_component() {
        let layers: BTreeSet<&str> = PER_LAYER
            .iter()
            .map(|p| p.name.split('.').next().unwrap())
            .collect();
        let expected: BTreeSet<&str> = [
            "netsim", "sim", "deluge", "core", "seluge", "crypto", "erasure", "host", "bench",
        ]
        .into_iter()
        .collect();
        assert_eq!(layers, expected);
    }
}
