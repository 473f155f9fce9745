//! The two measurement passes of one workload process.
//!
//! * [`end_to_end`]: repeated set-ups, then untraced repetitions of the
//!   body for the requested time. Every end-to-end metric comes from
//!   here and from nowhere else.
//! * [`per_layer`]: one traced repetition under the span recorder and
//!   counting sink, bracketed by two untraced reference repetitions, the
//!   isolated probes, and (where the workload has one) the
//!   sharded-engine measurement. Every per-layer metric comes from here.

use crate::names::PER_LAYER;
use crate::probes::{eventq_push_pop_ns, layer_probes, medium_replay};
use crate::proc::{cpu_seconds, peak_rss_mib};
use crate::span::{self, Recorder, SpanName};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::workloads::{BodyOut, Totals, Workload};
use crate::wrap::{self, CountingSink, Layer, Plain, Traced};
use lrs_crypto::sha256::sha256;
use lrs_crypto::ShaKernel;
use lrs_erasure::kernel::Kernel;
use std::time::{Duration, Instant};

/// Set-ups timed per process. A fixed count, so the allocation history
/// before the first repetition (and with it `peak_rss_mib`) does not
/// depend on how fast the host happens to be.
const SETUPS: usize = 25;
/// A repetition is flagged when its wall exceeds its on-CPU time by
/// more than this share: the process was descheduled or blocked.
const DISTURBED_SHARE: f64 = 0.03;
/// Re-runs granted to a flagged repetition.
const RETRIES: u32 = 2;

/// One timed body.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Wall seconds.
    pub wall_s: f64,
    /// On-CPU seconds (10 ms resolution).
    pub cpu_s: f64,
    /// Whether the disturbance guard flagged the kept measurement.
    pub disturbed: bool,
    /// What the body reported.
    pub out: BodyOut,
}

impl Rep {
    /// A repetition from its raw readings. The 10 ms allowance is one
    /// tick of the CPU clock.
    fn new(wall_s: f64, cpu_s: f64, out: BodyOut) -> Rep {
        Rep {
            wall_s,
            cpu_s,
            disturbed: wall_s > cpu_s * (1.0 + DISTURBED_SHARE) + 0.01,
            out,
        }
    }
}

fn timed(body: impl FnOnce() -> BodyOut) -> Rep {
    let cpu = cpu_seconds();
    let started = Instant::now();
    let out = body();
    let wall_s = started.elapsed().as_secs_f64();
    Rep::new(wall_s, cpu_seconds() - cpu, out)
}

/// The disturbance guard: a flagged measurement is taken again at most
/// [`RETRIES`] times while `may_retry` allows; the first clean one (or
/// the last flagged one) is kept. Returns the kept repetition and how
/// many measurements were flagged.
fn guarded(mut measure: impl FnMut() -> Rep, may_retry: impl Fn() -> bool) -> (Rep, u64) {
    let mut rep = measure();
    let mut flagged = u64::from(rep.disturbed);
    let mut retries = 0;
    while rep.disturbed && retries < RETRIES && may_retry() {
        rep = measure();
        flagged += u64::from(rep.disturbed);
        retries += 1;
    }
    (rep, flagged)
}

/// The end-to-end pass's raw material.
pub struct EndToEndRun {
    /// Wall seconds of each timed set-up.
    pub setups_s: Vec<f64>,
    /// The kept repetitions.
    pub reps: Vec<Rep>,
    /// Measurements the disturbance guard flagged (kept or re-run).
    pub disturbed_reps: u64,
    /// `VmHWM` after the last repetition.
    pub peak_rss_mib: f64,
    /// Whether every repetition reported identical exact results.
    pub deterministic: bool,
}

impl EndToEndRun {
    /// Operations attempted over all repetitions.
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.out.attempted).sum()
    }

    /// Operations failed over all repetitions.
    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.out.failed).sum()
    }

    /// The end-to-end metric values, in `END_TO_END` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let walls: Vec<f64> = self.reps.iter().map(|r| r.wall_s).collect();
        let cpus: Vec<f64> = self.reps.iter().map(|r| r.cpu_s).collect();
        let wall = median(&walls);
        vec![
            ("setup_s", median(&self.setups_s)),
            ("wall_s", wall),
            ("cpu_s", median(&cpus)),
            ("goodput_kib_per_s", self.reps[0].out.kib / wall),
            ("peak_rss_mib", self.peak_rss_mib),
        ]
    }
}

/// Sets the workload up [`SETUPS`] times, then repeats the body
/// until `seconds` have passed (always at least once). With `quick`,
/// one set-up and one repetition.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64, quick: bool) -> EndToEndRun {
    let mut setups_s = Vec::new();
    let mut timed_setup = || {
        let started = Instant::now();
        let prepared = workload.prepare::<Plain>(seed);
        setups_s.push(started.elapsed().as_secs_f64());
        prepared
    };
    let mut prepared = timed_setup();
    for _ in 1..if quick { 1 } else { SETUPS } {
        // Drop the previous set-up first: peak RSS must not hold two.
        drop(prepared);
        prepared = timed_setup();
    }

    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut disturbed_reps = 0;
    loop {
        let (rep, flagged) = guarded(
            || timed(|| prepared.body_plain()),
            || started.elapsed() < budget,
        );
        disturbed_reps += flagged;
        reps.push(rep);
        if quick || started.elapsed() >= budget {
            break;
        }
    }
    let deterministic = reps.iter().all(|r| {
        r.out.totals == reps[0].out.totals
            && r.out.attempted == reps[0].out.attempted
            && r.out.kib == reps[0].out.kib
    });
    EndToEndRun {
        setups_s,
        reps,
        disturbed_reps,
        peak_rss_mib: peak_rss_mib(),
        deterministic,
    }
}

/// The per-layer pass's results.
pub struct PerLayerRun {
    /// Every per-layer metric, in `PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The span aggregates and reservoir of the traced repetition.
    pub recorder: Recorder,
    /// Operations attempted by the traced repetition.
    pub attempted: u64,
    /// Operations failed by the traced repetition.
    pub failed: u64,
    /// Named consistency checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    /// SHA-256 over the exact (`count` and `sim`) metrics.
    pub sim_digest: String,
    /// Selected GF(256) kernel.
    pub erasure_kernel: &'static str,
    /// Selected multi-buffer SHA-256 kernel.
    pub crypto_kernel: &'static str,
    /// Mean wall of the two untraced reference repetitions.
    pub reference_wall_s: f64,
    /// Wall of the traced repetition.
    pub traced_wall_s: f64,
}

impl PerLayerRun {
    /// Whether every consistency check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs the traced pass. `seconds` scales the probes' time slices; the
/// traced repetition and its two references are always one body each.
pub fn per_layer(workload: Workload, seed: u64, seconds: f64) -> PerLayerRun {
    // Untraced references before and after the traced repetition: the
    // host's speed drifts over tens of seconds, and the mean of the two
    // brackets cancels a linear drift out of the overhead figure.
    let plain = workload.prepare::<Plain>(seed);
    let (before, mut disturbed) = guarded(|| timed(|| plain.body_plain()), || true);

    span::start();
    wrap::reset_tallies();
    let prepared = workload.prepare::<Traced>(seed);
    let sink = CountingSink::new();
    let traced = timed(|| prepared.body_traced(&sink));
    disturbed += u64::from(traced.disturbed);
    let rec = span::finish();
    let (after, flagged) = guarded(|| timed(|| plain.body_plain()), || true);
    disturbed += flagged;
    let reference_wall_s = (before.wall_s + after.wall_s) / 2.0;
    let counts = sink.counts();
    let core = wrap::tally(Layer::Core);
    let seluge = wrap::tally(Layer::Seluge);
    let totals: Totals = traced.out.totals;
    let shapes = prepared.shapes();

    let probe_budget = Duration::from_secs_f64((seconds / 150.0).clamp(0.002, 0.1));
    let probed = layer_probes(&shapes, probe_budget);
    let probe = |name: &str| -> f64 {
        probed
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("per-layer metric {name} has no source"))
    };
    let (begin_ns, deliver_ns, push_pop_ns) = match &shapes.network {
        Some((topology, medium)) => {
            let (b, d) = medium_replay(topology, *medium, &counts.schedule);
            let depth = counts.mean_depth().round() as usize;
            (b, d, eventq_push_pop_ns(depth, probe_budget))
        }
        None => (0.0, 0.0, 0.0),
    };
    let sharded = prepared.sharded_wall_s(2);

    let events = counts.events();
    let run = rec.total(SpanName::NetsimRun);
    let on_packet = rec.total(SpanName::DelugeOnPacket);
    let on_timer = rec.total(SpanName::DelugeOnTimer);
    let core_handle = rec.total(SpanName::CoreHandlePacket);
    let core_payload = rec.total(SpanName::CorePacketPayload);
    let seluge_handle = rec.total(SpanName::SelugeHandlePacket);
    let sched_next = rec.total(SpanName::CoreSchedulerNext);
    let body = rec.total(SpanName::Body);
    let cost = totals.cost;
    let page_completions = core.page_completions.0 + seluge.page_completions.0;
    let run_ms = &after.out.run_ms;
    let p90 = highest_supported_percentile(run_ms.len(), &[90])
        .map_or(0.0, |p| percentile(run_ms, f64::from(p)));
    let crypto_est_ns = (cost.hashes - cost.memoized_hashes) as f64 * probe("crypto.sha256.pkt_ns")
        + cost.signature_verifications as f64 * probe("crypto.schnorr.verify_us") * 1e3
        + cost.puzzle_checks as f64 * probe("crypto.puzzle.check_ns");
    let erasure_est_us = cost.decodes as f64 * probe("erasure.rs.decode_fresh_us")
        + cost.encodes as f64 * probe("erasure.rs.encode_us");
    let kernel = Kernel::active();
    let sha_kernel = ShaKernel::active();

    let value = |name: &'static str| -> f64 {
        match name {
            "netsim.run.self_s" => secs(run.self_ns()),
            "netsim.self_ns_per_event" => ratio(run.self_ns() as f64, events as f64),
            "netsim.events" => events as f64,
            "netsim.events_per_s" => ratio(events as f64, reference_wall_s),
            "netsim.tx" => counts.tx as f64,
            "netsim.deliveries" => counts.deliveries() as f64,
            "netsim.rx" => counts.rx as f64,
            "netsim.loss.collision" => counts.loss_collision as f64,
            "netsim.loss.phy" => counts.loss_phy as f64,
            "netsim.loss.app_drop" => counts.loss_app_drop as f64,
            "netsim.timers_fired" => counts.timers_fired as f64,
            "netsim.useful_rx_frac" => ratio(
                (core.accepted.0 + seluge.accepted.0) as f64,
                counts.deliveries() as f64,
            ),
            "netsim.build_s" => secs(rec.total(SpanName::NetsimBuild).total_ns),
            "netsim.topology.build_s" => secs(rec.total(SpanName::NetsimTopologyBuild).total_ns),
            "netsim.medium.deliver_ns" => deliver_ns,
            "netsim.medium.begin_broadcast_ns" => begin_ns,
            "netsim.medium.est_busy_s" => {
                (counts.deliveries() as f64 * deliver_ns + counts.tx as f64 * begin_ns) / 1e9
            }
            "netsim.eventq.push_pop_ns" => push_pop_ns,
            "netsim.eventq.mean_depth" => counts.mean_depth(),
            "netsim.trace.overhead_frac" => {
                ratio(traced.wall_s - reference_wall_s, reference_wall_s)
            }
            "netsim.shard2.wall_s" => sharded.map_or(0.0, |(wall, _)| wall),
            "netsim.shard2.wall_ratio" => {
                sharded.map_or(0.0, |(wall, _)| ratio(wall, reference_wall_s))
            }
            "sim.latency_s" => ratio(totals.latency_s, totals.runs as f64),
            "sim.tx_kib" => totals.tx_bytes as f64 / 1024.0,
            "sim.data_pkts" => totals.data_pkts as f64,
            "sim.snack_pkts" => totals.snack_pkts as f64,
            "sim.adv_pkts" => totals.adv_pkts as f64,
            "sim.energy_j" => totals.energy_j,
            "sim.pkts_per_page_decode" => ratio(
                (core.page_calls + seluge.page_calls) as f64,
                page_completions as f64,
            ),
            "deluge.engine.self_s" => secs(rec.self_ns_of("deluge.on_")),
            "deluge.on_packet.calls" => on_packet.count as f64,
            "deluge.on_packet.busy_s" => secs(on_packet.total_ns),
            "deluge.on_timer.calls" => on_timer.count as f64,
            "deluge.on_timer.busy_s" => secs(on_timer.total_ns),
            "deluge.policy.union.busy_s" => secs(rec.total(SpanName::DelugePolicyUnion).total_ns),
            "deluge.node.duplicates" => totals.duplicates as f64,
            "deluge.node.auth_rejects" => totals.auth_rejects as f64,
            "deluge.node.mac_rejects" => totals.mac_rejects as f64,
            "deluge.node.snacks_sent" => totals.snacks_sent as f64,
            "deluge.node.out_of_order_drops" => totals.out_of_order_drops as f64,
            "core.scheme.handle_packet.calls" => core_handle.count as f64,
            "core.scheme.handle_packet.busy_s" => secs(core_handle.total_ns),
            "core.scheme.packet_payload.calls" => core_payload.count as f64,
            "core.scheme.packet_payload.busy_s" => secs(core_payload.total_ns),
            "core.scheme.wanted.busy_s" => secs(rec.total(SpanName::CoreWanted).total_ns),
            "core.scheme.accept_ns" => ratio(core.accepted.1 as f64, core.accepted.0 as f64),
            "core.scheme.reject_ns" => ratio(core.rejected.1 as f64, core.rejected.0 as f64),
            "core.scheme.decode_per_page_us" => {
                ratio(
                    core.page_completions.1 as f64,
                    core.page_completions.0 as f64,
                ) / 1e3
            }
            "core.scheduler.next.calls" => sched_next.count as f64,
            "core.scheduler.next.busy_s" => secs(sched_next.total_ns),
            "core.scheduler.on_snack.busy_s" => {
                secs(rec.total(SpanName::CoreSchedulerOnSnack).total_ns)
            }
            "core.preprocess.build_s" => secs(rec.total(SpanName::CorePreprocessBuild).total_ns),
            "core.preprocess.warm_digest_s" => {
                secs(rec.total(SpanName::CorePreprocessWarm).total_ns)
            }
            "seluge.scheme.handle_packet.calls" => seluge_handle.count as f64,
            "seluge.scheme.handle_packet.busy_s" => secs(seluge_handle.total_ns),
            "seluge.scheme.packet_payload.busy_s" => {
                secs(rec.total(SpanName::SelugePacketPayload).total_ns)
            }
            "seluge.preprocess.build_s" => {
                secs(rec.total(SpanName::SelugePreprocessBuild).total_ns)
            }
            "crypto.hashes" => cost.hashes as f64,
            "crypto.memoized_hashes" => cost.memoized_hashes as f64,
            "crypto.digest_hit_frac" => ratio(cost.memoized_hashes as f64, cost.hashes as f64),
            "crypto.sig_verifications" => cost.signature_verifications as f64,
            "crypto.puzzle_checks" => cost.puzzle_checks as f64,
            "crypto.est_busy_s" => crypto_est_ns / 1e9,
            "crypto.kernel_id" => ShaKernel::ALL
                .iter()
                .position(|k| *k == sha_kernel)
                .map_or(-1.0, |i| i as f64),
            "erasure.decodes" => cost.decodes as f64,
            "erasure.encodes" => cost.encodes as f64,
            "erasure.est_busy_s" => erasure_est_us / 1e6,
            "erasure.kernel_id" => Kernel::ALL
                .iter()
                .position(|k| *k == kernel)
                .map_or(-1.0, |i| i as f64),
            "bench.run_ms_p50" => {
                if run_ms.is_empty() {
                    0.0
                } else {
                    percentile(run_ms, 50.0)
                }
            }
            "bench.run_ms_p90" => p90,
            "bench.disturbed_reps" => disturbed as f64,
            "bench.harness.self_s" => secs(body.self_ns()),
            "bench.traced_wall_s" => secs(body.total_ns),
            probed_name => probe(probed_name),
        }
    };
    let metrics: Vec<(&'static str, f64)> =
        PER_LAYER.iter().map(|p| (p.name, value(p.name))).collect();

    // For simulated workloads the named layers must account for the
    // traced body: what the harness itself spends (glue, cloning the
    // image per run) stays under 2 %. The node workloads generate and
    // forge packets inside the body, so their harness share is reported
    // (`bench.harness.self_s`) rather than bounded.
    let harness_share = ratio(body.self_ns() as f64, body.total_ns as f64);
    let checks = vec![
        (
            "references_match_traced_totals",
            before.out.totals == totals && after.out.totals == totals,
        ),
        ("sink_tx_matches_metrics", counts.tx == totals.tx),
        ("sink_rx_matches_metrics", counts.rx == totals.rx),
        (
            "sink_losses_match_metrics",
            counts.loss_collision == totals.loss_collision
                && counts.loss_phy + counts.loss_other == totals.loss_phy
                && counts.loss_app_drop == totals.loss_app_drop,
        ),
        (
            "conservation_tx_equals_rx_plus_loss",
            counts.conservation_violations == 0,
        ),
        ("sharded_run_completes", sharded.is_none_or(|(_, ok)| ok)),
        (
            "layer_self_times_sum_to_traced_wall",
            shapes.network.is_none() || harness_share <= 0.02,
        ),
    ];

    let mut digest_input = String::new();
    for (entry, (name, v)) in PER_LAYER.iter().zip(&metrics) {
        if entry.kind.is_exact() {
            digest_input.push_str(&format!("{name}={:016x}\n", v.to_bits()));
        }
    }
    PerLayerRun {
        metrics,
        recorder: rec,
        attempted: traced.out.attempted,
        failed: traced.out.failed + before.out.failed + after.out.failed,
        checks,
        sim_digest: sha256(digest_input.as_bytes()).to_hex(),
        erasure_kernel: kernel.name(),
        crypto_kernel: sha_kernel.name(),
        reference_wall_s,
        traced_wall_s: traced.wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds the guard a scripted sequence of (wall, cpu) readings.
    fn script(readings: &[(f64, f64)], may_retry: bool) -> (Rep, u64, usize) {
        let mut taken = 0;
        let (rep, flagged) = guarded(
            || {
                let (wall, cpu) = readings[taken];
                taken += 1;
                Rep::new(wall, cpu, BodyOut::default())
            },
            || may_retry,
        );
        (rep, flagged, taken)
    }

    #[test]
    fn a_clean_repetition_is_kept_at_once() {
        let (rep, flagged, taken) = script(&[(4.00, 3.97), (9.0, 1.0)], true);
        assert_eq!(
            (rep.wall_s, rep.disturbed, flagged, taken),
            (4.00, false, 0, 1)
        );
        // 3 % over the CPU time plus one clock tick is still clean.
        assert!(!Rep::new(4.11, 3.99, BodyOut::default()).disturbed);
        assert!(Rep::new(4.13, 3.99, BodyOut::default()).disturbed);
    }

    #[test]
    fn a_flagged_repetition_is_rerun_until_clean() {
        let (rep, flagged, taken) = script(&[(5.0, 4.0), (4.0, 3.98), (9.0, 1.0)], true);
        assert_eq!(
            (rep.wall_s, rep.disturbed, flagged, taken),
            (4.0, false, 1, 2)
        );
    }

    #[test]
    fn reruns_stop_after_two_and_keep_the_last_flagged() {
        let (rep, flagged, taken) = script(&[(5.0, 4.0), (5.1, 4.0), (5.2, 4.0), (4.0, 4.0)], true);
        assert_eq!(taken, 1 + RETRIES as usize);
        assert_eq!((rep.wall_s, rep.disturbed, flagged), (5.2, true, 3));
    }

    #[test]
    fn no_rerun_once_the_time_budget_is_spent() {
        let (rep, flagged, taken) = script(&[(5.0, 4.0), (4.0, 4.0)], false);
        assert_eq!((rep.disturbed, flagged, taken), (true, 1, 1));
    }
}
