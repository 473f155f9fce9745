//! Diagnostic probe for large-N one-hop LR-Seluge runs.
//!
//! Usage: `probe [N] [seed] [p] [--trace FILE.jsonl]`
//!
//! `probe --kernels` prints the GF(256) and SHA-256 kernels this CPU
//! supports, which one runtime dispatch selected, and the env knobs
//! (`LRS_GF_KERNEL` / `LRS_SHA_KERNEL`) that force a choice — then
//! exits. Scripts use it to record the compute configuration of a run.
//!
//! With `--trace FILE`, every simulator event (tx/rx/loss-with-cause,
//! timers, completions, protocol notes) is streamed to `FILE` as JSON
//! Lines, and a closing `"ev":"metrics"` summary line is appended.
//! Attaching the trace is observational only — the run's metrics are
//! identical with and without it.
use lr_seluge::{Deployment, LrSelugeParams};
use lrs_bench::cli::{exit_with_usage, flag, positional, valued, Cli, CliError, Flag};
use lrs_bench::runner::test_image;
use lrs_bench::{write_json, Json};
use lrs_deluge::engine::Scheme as _;
use lrs_host::node::{NodeId, PacketKind};
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::sim::SimConfig;

use lrs_host::time::Duration;
use lrs_netsim::topology::Topology;
use lrs_netsim::trace::JsonlTrace;
use lrs_netsim::SimBuilder;
use std::io::Write as _;

const FLAGS: &[Flag] = &[
    positional("[N]", "receivers (default 35)"),
    positional("[seed]", "simulator seed (default 1)"),
    positional("[p]", "application-layer loss rate (default 0.1)"),
    flag(
        "--kernels",
        "print the supported and selected GF(256) / SHA-256 kernels, then exit",
    ),
    valued(
        "--trace",
        "stream every simulator event to <value> as JSON Lines",
    ),
];

/// `(N, seed, p, trace file)` of a parsed command line.
fn run_args(cli: &Cli) -> Result<(usize, u64, f64, Option<String>), CliError> {
    Ok((
        cli.parsed_or("[N]", 35)?,
        cli.parsed_or("[seed]", 1)?,
        cli.parsed_or("[p]", 0.1)?,
        cli.value("--trace").map(str::to_string),
    ))
}

/// Reports an I/O error on the trace file at `path` and exits 1.
fn fail(path: &str, err: std::io::Error) -> ! {
    eprintln!("probe: {path}: {err}");
    std::process::exit(1)
}

fn main() {
    let parsed =
        Cli::parse("probe", FLAGS).and_then(|cli| Ok((cli.flag("--kernels"), run_args(&cli)?)));
    let (kernels, (n_rx, seed, p_loss, trace_path)) =
        parsed.unwrap_or_else(|e| exit_with_usage("probe", FLAGS, &e));
    if kernels {
        let gf: Vec<&str> = lrs_erasure::kernel::Kernel::supported()
            .into_iter()
            .map(|k| k.name())
            .collect();
        let sha: Vec<&str> = lrs_crypto::sha256_mb::ShaKernel::supported()
            .into_iter()
            .map(|k| k.name())
            .collect();
        println!(
            "gf256 kernels: [{}] active={} (force with LRS_GF_KERNEL)",
            gf.join(", "),
            lrs_erasure::kernel::Kernel::active().name()
        );
        println!(
            "sha256 kernels: [{}] active={} (force with LRS_SHA_KERNEL)",
            sha.join(", "),
            lrs_crypto::sha256_mb::ShaKernel::active().name()
        );
        return;
    }
    // Open the trace first: a bad path fails before any work is done.
    let trace = trace_path
        .as_deref()
        .map(|path| JsonlTrace::create(path).unwrap_or_else(|e| fail(path, e)));
    let params = LrSelugeParams::default(); // 20 KB
    let image = test_image(params.image_len);
    let deployment = Deployment::new(&image, params, b"probe");
    let cfg = SimConfig {
        medium: MediumConfig {
            app_loss: p_loss,
            ..MediumConfig::default()
        },
        ..SimConfig::default()
    };
    let builder = SimBuilder::new(Topology::star(n_rx + 1), seed, |id| {
        deployment.node(id, NodeId(0))
    })
    .config(cfg);
    let mut sim = match trace {
        Some(trace) => builder.trace(trace).build(),
        None => builder.build(),
    };
    let report = sim.run(Duration::from_secs(100_000));
    if let Some(path) = &trace_path {
        // `run` flushed the sink; append the closing metrics summary
        // line so tools can key on `"ev":"metrics"`.
        let line = sim.metrics().to_trace_json(sim.now());
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .unwrap_or_else(|e| fail(path, e));
        eprintln!("trace written to {path}");
    }
    let m = sim.metrics();
    println!(
        "N={n_rx} seed={seed} p={p_loss} complete={} latency={:?} data={} hp={} snack={} adv={} coll={} phy={} app={}",
        report.all_complete, report.latency,
        m.tx_packets(PacketKind::Data), m.tx_packets(PacketKind::HashPage),
        m.tx_packets(PacketKind::Snack), m.tx_packets(PacketKind::Adv),
        m.collision_losses(), m.phy_losses(), m.app_drops()
    );
    let mut per_item_completion: Vec<(u32, u16)> = Vec::new();
    for i in 0..=n_rx as u32 {
        let node = sim.node(NodeId(i));
        let s = node.stats();
        per_item_completion.push((i, node.scheme().complete_items()));
        if s.gave_up > 0 || s.snacks_sent > 60 || s.out_of_order_drops > 200 {
            println!(
                "  node {i}: level={} snacks={} data_sent={} advs={} dup={} ooo={} gave_up={}",
                node.scheme().complete_items(),
                s.snacks_sent,
                s.data_sent,
                s.advs_sent,
                s.duplicates,
                s.out_of_order_drops,
                s.gave_up
            );
        }
    }
    let total_snacks: u64 = (0..=n_rx as u32)
        .map(|i| sim.node(NodeId(i)).stats().snacks_sent)
        .sum();
    let total_gaveup: u64 = (0..=n_rx as u32)
        .map(|i| sim.node(NodeId(i)).stats().gave_up)
        .sum();
    let total_dup: u64 = (0..=n_rx as u32)
        .map(|i| sim.node(NodeId(i)).stats().duplicates)
        .sum();
    println!("totals: snacks={total_snacks} gave_up={total_gaveup} duplicates={total_dup}");

    // Machine-readable single-run summary alongside the other bins'
    // results files (one run, so samples are singletons by design).
    let num = |v: f64| Json::Num(v);
    let report_json = Json::Obj(vec![
        ("experiment".into(), Json::str("probe")),
        (
            "params".into(),
            Json::Obj(vec![
                ("N".into(), num(n_rx as f64)),
                ("seed".into(), num(seed as f64)),
                ("p".into(), num(p_loss)),
            ]),
        ),
        (
            "metrics".into(),
            Json::Obj(vec![
                ("complete".into(), Json::Bool(report.all_complete)),
                (
                    "latency_s".into(),
                    num(report.latency.map_or(f64::NAN, |t| t.as_secs_f64())),
                ),
                (
                    "data_pkts".into(),
                    num(m.tx_packets(PacketKind::Data) as f64),
                ),
                (
                    "hash_page_pkts".into(),
                    num(m.tx_packets(PacketKind::HashPage) as f64),
                ),
                (
                    "snack_pkts".into(),
                    num(m.tx_packets(PacketKind::Snack) as f64),
                ),
                ("adv_pkts".into(), num(m.tx_packets(PacketKind::Adv) as f64)),
                ("collision_losses".into(), num(m.collision_losses() as f64)),
                ("phy_losses".into(), num(m.phy_losses() as f64)),
                ("app_drops".into(), num(m.app_drops() as f64)),
                ("total_snacks".into(), num(total_snacks as f64)),
                ("gave_up".into(), num(total_gaveup as f64)),
                ("duplicates".into(), num(total_dup as f64)),
            ]),
        ),
    ]);
    println!("wrote {}", write_json("probe", &report_json));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(usize, u64, f64, Option<String>), CliError> {
        Cli::parse_from("probe", FLAGS, args.iter().map(|s| s.to_string()))
            .and_then(|cli| run_args(&cli))
    }

    #[test]
    fn positionals_and_trace_parse_or_are_typed_errors() {
        assert_eq!(parse(&[]), Ok((35, 1, 0.1, None)));
        assert_eq!(parse(&["5"]), Ok((5, 1, 0.1, None)));
        assert_eq!(
            parse(&["5", "2", "0.3", "--trace", "out.jsonl"]),
            Ok((5, 2, 0.3, Some("out.jsonl".to_string())))
        );
        assert_eq!(parse(&["--trace", "t", "5"]).map(|a| a.0), Ok(5));
        for (args, flagged) in [
            (&["--kernel"][..], "unknown argument \"--kernel\""),
            (&["--help"], "unknown argument \"--help\""),
            (
                &["--trace=out.jsonl"],
                "unknown argument \"--trace=out.jsonl\"",
            ),
            (&["5", "1", "0.3", "7"], "unknown argument \"7\""),
            (&["5", "x", "0.3"], "bad [seed] \"x\""),
            (&["many"], "bad [N] \"many\""),
            (&["5", "1", "lossy"], "bad [p] \"lossy\""),
            (&["--trace"], "--trace requires a value"),
        ] {
            let err = parse(args).unwrap_err().to_string();
            assert!(err.starts_with(flagged), "{args:?}: {err}");
        }
        assert!(Cli::parse_from("probe", FLAGS, ["--kernels".to_string()])
            .unwrap()
            .flag("--kernels"));
    }
}
