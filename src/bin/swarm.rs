//! Swarm harness: the paper's experiment over real OS processes.
//!
//! Spawns N `node` processes on localhost, each a real-time host around
//! the same `Protocol` state machine the simulator drives, and routes
//! every data frame through a seeded lossy UDP proxy (uniform
//! drop/duplicate/reorder ppm composed with per-directed-link asymmetry
//! in the simulator's `FaultPlan` vocabulary). Nodes stream status
//! lines to a control socket; the run ends when every node reports
//! completion with the sim checker's invariants intact, and the harness
//! asserts all reassembled image digests equal the scenario's expected
//! digest — the swarm analog of the simulator's end-of-run checks.
//!
//! ```text
//! swarm [--nodes N] [--scheme lr-seluge|seluge|deluge|both] [--smoke]
//!       [--drop-ppm P] [--dup-ppm P] [--reorder-ppm P]
//!       [--asym-frac-ppm P] [--asym-keep-ppm P]
//!       [--profile <name>] [--image-bytes N] [--seed S]
//!       [--time-scale K] [--deadline-s T]
//! ```
//!
//! `--smoke` is the CI gate: 16 nodes per scheme at 5% uniform loss.
//! Writes `results/swarm.json`.

use lr_seluge_repro::swarm::{
    asymmetry_plan, LossyLinks, NodeReport, ReorderRelay, SwarmScenario, CONTROL_QUIT,
};
use lrs_bench::capsules::{LrScheme, SelugeScheme};
use lrs_bench::{with_scheme, write_json, Cli, Json};
use lrs_deluge::deployment::SchemeFamily;
use lrs_host::{decode_frame, NodeId, SimTime};
use lrs_netsim::fault::PPM_ONE;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLAGS: &[lrs_bench::cli::Flag] = &[
    lrs_bench::cli::flag("--smoke", "CI gate: 16 nodes per scheme at 5% uniform loss"),
    lrs_bench::cli::valued(
        "--nodes",
        "node processes per scheme (default 64; smoke 16)",
    ),
    lrs_bench::cli::valued(
        "--scheme",
        "lr-seluge, seluge, deluge, or both (default: lr-seluge and seluge)",
    ),
    lrs_bench::cli::valued(
        "--drop-ppm",
        "uniform drop probability in ppm (default 50000)",
    ),
    lrs_bench::cli::valued(
        "--dup-ppm",
        "duplication probability in ppm (default 10000)",
    ),
    lrs_bench::cli::valued(
        "--reorder-ppm",
        "reorder probability in ppm (default 20000)",
    ),
    lrs_bench::cli::valued(
        "--asym-frac-ppm",
        "fraction of directed links degraded (default 100000)",
    ),
    lrs_bench::cli::valued(
        "--asym-keep-ppm",
        "delivery scale on degraded links (default 700000)",
    ),
    lrs_bench::cli::valued("--profile", "parameter profile (default campaign)"),
    lrs_bench::cli::valued("--image-bytes", "image size (default 2048)"),
    lrs_bench::cli::valued("--seed", "scenario seed (default 7)"),
    lrs_bench::cli::valued("--time-scale", "virtual us per wall us (default 10)"),
    lrs_bench::cli::valued(
        "--deadline-s",
        "per-scheme wall deadline in seconds (default 180)",
    ),
];

/// Everything one scheme's run needs, parsed once.
struct SwarmConfig {
    nodes: u32,
    drop_ppm: u32,
    dup_ppm: u32,
    reorder_ppm: u32,
    asym_frac_ppm: u32,
    asym_keep_ppm: u32,
    time_scale: u64,
    deadline: Duration,
}

/// Outcome of one scheme's swarm run.
struct SwarmRun {
    scheme: &'static str,
    wall_s: f64,
    reports: Vec<NodeReport>,
}

/// The lossy proxy: receives every node's frames on one socket, applies
/// the per-link loss model, and fans each frame out to every other
/// registered node. Node addresses are learned from `hello` datagrams
/// and refreshed from the envelope `from` field of data frames, so the
/// map heals even if every hello is lost. Per-destination reordering
/// (and the delivery of every granted copy, duplicate-of-a-reordered-
/// frame included) is [`ReorderRelay`]'s job, unit-tested in the lib.
///
/// The socket's read timeout is configured by the caller before this
/// thread starts, so the loop body has no panicking paths.
fn proxy_loop(socket: UdpSocket, mut links: LossyLinks, time_scale: u64, stop: Arc<AtomicBool>) {
    let epoch = Instant::now();
    let mut addrs: HashMap<u32, SocketAddr> = HashMap::new();
    let mut relay = ReorderRelay::new();
    let mut buf = [0u8; 2048];
    while !stop.load(Ordering::Relaxed) {
        let (n, src) = match socket.recv_from(&mut buf) {
            Ok(pair) => pair,
            Err(_) => {
                // Idle tick: release anything held so reordering can
                // only delay a frame briefly, never strand it.
                relay.flush(|dest, frame| {
                    if let Some(addr) = addrs.get(&dest) {
                        let _ = socket.send_to(frame, addr);
                    }
                });
                continue;
            }
        };
        let datagram = &buf[..n];
        if let Some(rest) = datagram.strip_prefix(b"lrs-swarm hello ") {
            if let Some(id) = std::str::from_utf8(rest).ok().and_then(|s| s.parse().ok()) {
                addrs.insert(id, src);
            }
            continue;
        }
        let Some(frame) = decode_frame(datagram) else {
            continue;
        };
        let from = frame.from;
        addrs.insert(from.0, src);
        links.advance(SimTime(epoch.elapsed().as_micros() as u64 * time_scale));
        let targets: Vec<(u32, SocketAddr)> = addrs
            .iter()
            .filter(|(id, _)| **id != from.0)
            .map(|(id, addr)| (*id, *addr))
            .collect();
        for (dest, addr) in targets {
            let verdict = links.verdict(from, NodeId(dest));
            relay.apply(dest, datagram, verdict, |f| {
                let _ = socket.send_to(f, addr);
            });
        }
    }
}

fn spawn_node(
    node_bin: &std::path::Path,
    id: u32,
    proxy: SocketAddr,
    control: SocketAddr,
    scheme: &str,
    scenario: &SwarmScenario,
    cfg: &SwarmConfig,
) -> Result<Child, String> {
    Command::new(node_bin)
        .args([
            "--id",
            &id.to_string(),
            "--proxy",
            &proxy.to_string(),
            "--control",
            &control.to_string(),
            "--scheme",
            scheme,
            "--profile",
            &scenario.profile,
            "--image-bytes",
            &scenario.image_len.to_string(),
            "--key-context",
            &scenario.key_context,
            "--seed",
            &scenario.seed.to_string(),
            "--time-scale",
            &cfg.time_scale.to_string(),
            "--deadline-s",
            &cfg.deadline.as_secs().to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", node_bin.display()))
}

/// Runs one scheme's swarm end-to-end and verifies every node against
/// the scenario's expected digest.
fn run_swarm(
    scheme: &'static str,
    scenario: &SwarmScenario,
    cfg: &SwarmConfig,
) -> Result<SwarmRun, String> {
    let expected_digest = scenario.expected_digest()?;
    let node_bin = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .parent()
        .ok_or("current_exe has no parent")?
        .join("node");
    if !node_bin.exists() {
        return Err(format!(
            "{} not found; build it with `cargo build --release --bin node`",
            node_bin.display()
        ));
    }

    let control = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("control socket: {e}"))?;
    control
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("control socket: {e}"))?;
    let control_addr = control.local_addr().map_err(|e| e.to_string())?;

    let proxy = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("proxy socket: {e}"))?;
    proxy
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("proxy socket: {e}"))?;
    let proxy_addr = proxy.local_addr().map_err(|e| e.to_string())?;
    let plan = asymmetry_plan(
        cfg.nodes,
        cfg.asym_frac_ppm,
        cfg.asym_keep_ppm,
        scenario.seed,
    );
    let links = LossyLinks::new(
        cfg.drop_ppm,
        cfg.dup_ppm,
        cfg.reorder_ppm,
        &plan,
        scenario.seed,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let proxy_thread = {
        let stop = Arc::clone(&stop);
        let time_scale = cfg.time_scale;
        std::thread::spawn(move || proxy_loop(proxy, links, time_scale, stop))
    };

    println!(
        "[{}] spawning {} node processes (proxy {}, control {}, {} degraded links)",
        scheme,
        cfg.nodes,
        proxy_addr,
        control_addr,
        plan.events().len(),
    );
    let start = Instant::now();
    let mut children: Vec<Child> = Vec::new();
    for id in 0..cfg.nodes {
        children.push(spawn_node(
            &node_bin,
            id,
            proxy_addr,
            control_addr,
            scheme,
            scenario,
            cfg,
        )?);
    }

    // Collect status lines until every node reports done (or deadline).
    let mut latest: HashMap<u32, (NodeReport, SocketAddr)> = HashMap::new();
    let mut buf = [0u8; 1024];
    let mut last_progress = Instant::now();
    let all_done = loop {
        if let Ok((n, src)) = control.recv_from(&mut buf) {
            if let Some(report) = std::str::from_utf8(&buf[..n])
                .ok()
                .and_then(NodeReport::parse)
            {
                latest.insert(report.id, (report, src));
            }
        }
        let complete = latest.values().filter(|(r, _)| r.complete).count() as u32;
        if complete == cfg.nodes && latest.values().all(|(r, _)| r.invariants_ok) {
            break true;
        }
        if last_progress.elapsed() >= Duration::from_secs(2) {
            println!(
                "[{}] t={:.1}s: {}/{} complete, {} reporting",
                scheme,
                start.elapsed().as_secs_f64(),
                complete,
                cfg.nodes,
                latest.len(),
            );
            last_progress = Instant::now();
        }
        if start.elapsed() > cfg.deadline {
            break false;
        }
    };
    let wall_s = start.elapsed().as_secs_f64();

    // Stop everything: repeated quits (control is UDP too), then reap
    // with a kill fallback for anything that missed all of them.
    for _ in 0..3 {
        for (_, addr) in latest.values() {
            let _ = control.send_to(CONTROL_QUIT, addr);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let grace = Instant::now();
    for child in &mut children {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if grace.elapsed() > Duration::from_secs(5) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                Err(_) => break,
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    proxy_thread.join().map_err(|_| "proxy thread panicked")?;

    if !all_done {
        let missing: Vec<u32> = (0..cfg.nodes)
            .filter(|id| !latest.get(id).map(|(r, _)| r.complete).unwrap_or(false))
            .collect();
        return Err(format!(
            "[{}] deadline ({:?}) exceeded with {}/{} complete; incomplete nodes: {:?}",
            scheme,
            cfg.deadline,
            cfg.nodes - missing.len() as u32,
            cfg.nodes,
            missing,
        ));
    }
    // The sim checker's end-of-run assertions, over real processes:
    // every node completed with invariants intact and reassembled the
    // exact image the base station disseminated.
    for (report, _) in latest.values() {
        if !report.invariants_ok {
            return Err(format!("node {} violated invariants", report.id));
        }
        match &report.digest {
            Some(d) if *d == expected_digest => {}
            other => {
                return Err(format!(
                    "node {} image digest {:?} != expected {}",
                    report.id, other, expected_digest
                ))
            }
        }
    }
    let mut reports: Vec<NodeReport> = latest.into_values().map(|(r, _)| r).collect();
    reports.sort_by_key(|r| r.id);
    println!(
        "[{}] {} nodes complete in {:.1} s wall; all digests match {}",
        scheme,
        cfg.nodes,
        wall_s,
        &expected_digest[..16],
    );
    Ok(SwarmRun {
        scheme,
        wall_s,
        reports,
    })
}

fn run() -> Result<(), String> {
    let cli = Cli::parse("swarm", FLAGS).map_err(|e| e.to_string())?;
    let smoke = cli.smoke();
    let cfg = SwarmConfig {
        nodes: cli
            .parsed_or::<u32>("--nodes", if smoke { 16 } else { 64 })
            .map_err(|e| e.to_string())?,
        drop_ppm: cli
            .parsed_or::<u32>("--drop-ppm", 50_000)
            .map_err(|e| e.to_string())?,
        dup_ppm: cli
            .parsed_or::<u32>("--dup-ppm", 10_000)
            .map_err(|e| e.to_string())?,
        reorder_ppm: cli
            .parsed_or::<u32>("--reorder-ppm", 20_000)
            .map_err(|e| e.to_string())?,
        asym_frac_ppm: cli
            .parsed_or::<u32>("--asym-frac-ppm", 100_000)
            .map_err(|e| e.to_string())?,
        asym_keep_ppm: cli
            .parsed_or::<u32>("--asym-keep-ppm", 700_000)
            .map_err(|e| e.to_string())?,
        time_scale: cli
            .parsed_or::<u64>("--time-scale", 10)
            .map_err(|e| e.to_string())?,
        deadline: Duration::from_secs(
            cli.parsed_or::<u64>("--deadline-s", 180)
                .map_err(|e| e.to_string())?,
        ),
    };
    if cfg.nodes < 2 {
        return Err("need at least 2 nodes".to_string());
    }
    // LossyLinks asserts this; fail as a CLI error instead of a panic.
    if cfg.drop_ppm >= PPM_ONE {
        return Err(format!(
            "--drop-ppm {} would drop everything; need < {PPM_ONE}",
            cfg.drop_ppm
        ));
    }
    for (name, ppm) in [
        ("--dup-ppm", cfg.dup_ppm),
        ("--reorder-ppm", cfg.reorder_ppm),
        ("--asym-frac-ppm", cfg.asym_frac_ppm),
        ("--asym-keep-ppm", cfg.asym_keep_ppm),
    ] {
        if ppm > PPM_ONE {
            return Err(format!("{name} {ppm} exceeds {PPM_ONE} (= certainty)"));
        }
    }
    let schemes: Vec<&'static str> = match cli.value("--scheme").unwrap_or("both") {
        "both" => vec![LrScheme::NAME, SelugeScheme::NAME],
        name => vec![with_scheme!(name, S => S::NAME)
            .map_err(|e| format!("bad --scheme: {e}, or \"both\""))?],
    };
    let image_len = cli
        .parsed_or::<usize>("--image-bytes", 2048)
        .map_err(|e| e.to_string())?;
    let seed = cli
        .parsed_or::<u64>("--seed", 7)
        .map_err(|e| e.to_string())?;
    let profile = cli.value("--profile").unwrap_or("campaign").to_string();
    let mut runs = Vec::new();
    let scenario = SwarmScenario {
        profile,
        image_len,
        key_context: "swarm keys".to_string(),
        seed,
    };
    for scheme in schemes {
        runs.push(run_swarm(scheme, &scenario, &cfg)?);
    }

    let rows: Vec<Json> = runs
        .iter()
        .map(|run| {
            let tx: u64 = run.reports.iter().map(|r| r.tx_frames).sum();
            let rx: u64 = run.reports.iter().map(|r| r.rx_frames).sum();
            let rejected: u64 = run.reports.iter().map(|r| r.rx_rejected).sum();
            Json::Obj(vec![
                ("scheme".into(), Json::str(run.scheme)),
                ("nodes".into(), Json::num(run.reports.len() as u32)),
                ("wall_s".into(), Json::num(run.wall_s)),
                ("tx_frames".into(), Json::num(tx as f64)),
                ("rx_frames".into(), Json::num(rx as f64)),
                ("rx_rejected".into(), Json::num(rejected as f64)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("experiment".into(), Json::str("swarm")),
        (
            "mode".into(),
            Json::str(if smoke { "smoke" } else { "full" }),
        ),
        ("nodes_per_scheme".into(), Json::num(cfg.nodes)),
        ("drop_ppm".into(), Json::num(cfg.drop_ppm)),
        ("dup_ppm".into(), Json::num(cfg.dup_ppm)),
        ("reorder_ppm".into(), Json::num(cfg.reorder_ppm)),
        ("asym_frac_ppm".into(), Json::num(cfg.asym_frac_ppm)),
        ("asym_keep_ppm".into(), Json::num(cfg.asym_keep_ppm)),
        ("time_scale".into(), Json::num(cfg.time_scale as u32)),
        ("image_bytes".into(), Json::num(image_len as u32)),
        ("seed".into(), Json::num(seed as u32)),
        ("runs".into(), Json::Arr(rows)),
    ]);
    println!("wrote {}", write_json("swarm", &doc));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("swarm: {e}");
            ExitCode::FAILURE
        }
    }
}
