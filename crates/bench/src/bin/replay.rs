//! Flight-recorder front end: `replay <capsule> [--trace FILE] [--summary]`.
//!
//! A capsule (`lrs_netsim::capsule`) records everything needed to
//! re-execute a simulation bit-identically: seed, config, sampled
//! topology, fault schedule, scenario tags, and the run digest. This
//! binary loads one, rebuilds its node population from the scenario tags
//! through the registry in `lrs_bench::capsules`, re-executes it the way
//! its campaign job ran (invariant checker and digest memo armed), and
//! verifies the recomputed digest against the recorded one. It exits 1
//! on a capsule it refuses to load, on tags it cannot rebuild, on a
//! trace file it cannot write, and on divergence; a closed stdout
//! (`replay … | head`) ends it quietly with 1 too.
//!
//! Capsules from a campaign's `failures/`, `campaign --export-job` and
//! the committed `results/capsules/` all load here directly. Every run
//! first prints the GF(256) and SHA-256 kernels this CPU supports and
//! which ones runtime dispatch selected, so a replay log records the ISA
//! it ran on.
//!
//! With `--trace FILE`, every simulator event (tx/rx/loss-with-cause,
//! timers, completions, protocol notes) is streamed to `FILE` as JSON
//! Lines, closed by the `"ev":"metrics"` line the run's digest hashes.
//! A verified replay whose run recorded an invariant violation prints it
//! (`violation: …`: node, time, which invariant). With `--summary`, it
//! is explained: network totals, the twelve metrics its campaign job
//! logs (so a `paper` point's job reads against its cell's `jobs.log`),
//! one row per node, ending in the node's own state line (level, engine
//! state, wanted bits: where a stalled node is stuck), and one per item.

use lrs_bench::capsules::{replay_observed, ItemRow, ItemSummary, NodeRow};
use lrs_bench::cli::{exit_with_usage, flag, positional, valued, Cli, Flag};
use lrs_bench::ExperimentMetrics;
use lrs_crypto::ShaKernel;
use lrs_erasure::kernel::Kernel;
use lrs_host::node::{NodeId, PacketKind};
use lrs_host::time::SimTime;
use lrs_netsim::trace::{JsonlTrace, TraceSink};
use lrs_netsim::{verify_replay, Capsule, Metrics};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    positional("<capsule>", "capsule to re-execute and verify"),
    valued("--trace", "write every event to <value> as JSON Lines"),
    flag("--summary", "explain the run: totals, nodes, items"),
];

/// Why a replay ended early.
enum Stop {
    /// A refusal or a divergence, reported on stderr.
    Failed(String),
    /// Stdout was closed (`replay … | head`): nothing left to report to.
    Closed,
}

impl From<io::Error> for Stop {
    fn from(_: io::Error) -> Self {
        Stop::Closed
    }
}

/// The supported and the selected kernels of both dispatch layers.
fn kernels() -> String {
    let gf: Vec<_> = Kernel::supported().iter().map(|k| k.name()).collect();
    let sha: Vec<_> = ShaKernel::supported().iter().map(|k| k.name()).collect();
    let (gf, sha) = (gf.join(", "), sha.join(", "));
    let (gf_on, sha_on) = (Kernel::active().name(), ShaKernel::active().name());
    format!(
        "kernels: gf256 [{gf}] active={gf_on} (force with LRS_GF_KERNEL), \
         sha256 [{sha}] active={sha_on} (force with LRS_SHA_KERNEL)"
    )
}

fn replay(cli: &Cli, out: &mut impl Write) -> Result<(), Stop> {
    let path = cli.value("<capsule>").expect("a required slot");
    let (trace_path, items) = (cli.value("--trace"), ItemSummary::default());
    let mut sinks: Vec<Box<dyn TraceSink>> = Vec::new();
    if let Some(p) = trace_path {
        // Open the trace first: a bad path fails before any work is done.
        let trace = JsonlTrace::create(p).map_err(|e| Stop::Failed(format!("replay: {p}: {e}")))?;
        sinks.push(Box::new(trace));
    }
    if cli.flag("--summary") {
        sinks.push(Box::new(items.clone()));
    }
    writeln!(out, "{}", kernels())?;
    let capsule =
        Capsule::load(path).map_err(|e| Stop::Failed(format!("loading {path:?}: {e}")))?;
    writeln!(
        out,
        "capsule: seed {}, {} nodes, {} fault events",
        capsule.seed,
        capsule.topology.len(),
        capsule.faults.events().len(),
    )?;
    let (run, nodes, paper) = replay_observed(&capsule, sinks).map_err(Stop::Failed)?;
    if let Some(p) = trace_path {
        // The run flushed the sink; close the file with the metrics line.
        let line = run.metrics.to_trace_json(run.report.final_time);
        OpenOptions::new()
            .append(true)
            .open(p)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| Stop::Failed(format!("replay: {p}: {e}")))?;
    }
    verify_replay(&capsule, &run).map_err(|err| Stop::Failed(format!("replay FAILED: {err}")))?;
    writeln!(
        out,
        "replay OK: reproduced outcome {:?} at {:.1} s, {} trace events, digests match",
        run.report.outcome,
        run.report.final_time.as_secs_f64(),
        run.digest.events,
    )?;
    if let Some(record) = &run.report.violation {
        writeln!(out, "violation: {record}")?;
    }
    if cli.flag("--summary") {
        summary(out, &run.metrics, &paper, &nodes, &items.rows())?;
    }
    Ok(())
}

/// Seconds of virtual time, or `-` for never.
fn secs(t: Option<SimTime>) -> String {
    t.map_or("-".into(), |t| format!("{:.1}", t.as_secs_f64()))
}

/// The `--summary` block: totals, then one row per node, then one per
/// item.
fn summary(
    out: &mut impl Write,
    m: &Metrics,
    paper: &ExperimentMetrics,
    nodes: &[Option<NodeRow>],
    items: &BTreeMap<u64, ItemRow>,
) -> io::Result<()> {
    write!(out, "totals: tx")?;
    for kind in PacketKind::ALL {
        write!(out, " {}={}", kind.label(), m.tx_packets(kind))?;
    }
    let (collision, phy, app) = (m.collision_losses(), m.phy_losses(), m.app_drops());
    writeln!(out, " lost collision={collision} phy={phy} app={app}")?;
    // The record a campaign job logs for this run, metric by metric.
    write!(out, "metrics:")?;
    for (name, value) in ExperimentMetrics::NAMES.iter().zip(paper.values()) {
        write!(out, " {name}={value}")?;
    }
    writeln!(out)?;
    writeln!(
        out,
        " node level  done_s  snacks    data    advs     dup     ooo gave_up rejects detail"
    )?;
    for (id, row) in nodes.iter().enumerate() {
        let Some(NodeRow {
            level,
            stats: s,
            detail,
        }) = row
        else {
            writeln!(out, "{id:>5} attacker")?;
            continue;
        };
        let done = secs(m.completion_of(NodeId(id as u32)));
        let (snacks, data, advs, dup) = (s.snacks_sent, s.data_sent, s.advs_sent, s.duplicates);
        let (ooo, gave_up, rejects) = (
            s.out_of_order_drops,
            s.gave_up,
            s.auth_rejects + s.mac_rejects,
        );
        writeln!(
            out,
            "{id:>5} {level:>5} {done:>7} {snacks:>7} {data:>7} {advs:>7} {dup:>7} {ooo:>7} {gave_up:>7} {rejects:>7} {detail}"
        )?;
    }
    writeln!(
        out,
        " item  completed  first_s   last_s sched_tx   snacks rx/completer"
    )?;
    for (i, row) in items {
        let (first, last) = (secs(row.first), secs(row.last));
        let per_completer = match row.completers {
            0 => "-".to_string(),
            n => format!("{:.1}", row.receptions as f64 / n as f64),
        };
        let (completers, sched_tx, snacks) = (row.completers, row.sched_tx, row.snacks);
        writeln!(
            out,
            "{i:>5} {completers:>10} {first:>8} {last:>8} {sched_tx:>8} {snacks:>8} {per_completer:>12}"
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = Cli::parse("replay", FLAGS).unwrap_or_else(|e| exit_with_usage("replay", FLAGS, &e));
    match replay(&cli, &mut io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Closed) => ExitCode::FAILURE,
        Err(Stop::Failed(err)) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    }
}
