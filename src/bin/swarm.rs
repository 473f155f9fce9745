//! Swarm harness: the paper's experiment over real OS processes.
//!
//! ```text
//! swarm [--dup-ppm P] [--reorder-ppm P] [--time-scale K] <capsule>...
//! ```
//!
//! Runs each capsule in turn — the files `campaign --export-job`
//! writes and `replay` reads. For one capsule it spawns a `node`
//! process per topology node on localhost, each a real-time host around
//! the same `Protocol` state machine the simulator drives, and routes
//! every data frame through a seeded lossy UDP proxy: the capsule's
//! topology, application-layer loss and link faults, plus the harness's
//! own duplication and reordering. Nodes stream status lines to a
//! control socket; a run ends when every node reports completion with
//! the sim checker's invariants intact, and the harness asserts all
//! reassembled image digests equal the SHA-256 of the capsule's image —
//! the swarm analog of the simulator's end-of-run checks. A run gets
//! the capsule's deadline, scaled to wall time.
//!
//! Every capsule is checked before anything spawns: node faults, a
//! noise model and adversaries are refused, naming the item.
//! Writes `results/swarm.json`.

use lr_seluge_repro::swarm::{
    check_capsule, time_scale, wall_deadline, LossyLinks, NodeReport, ReorderRelay, CONTROL_QUIT,
};
use lrs_bench::capsules::{profile_image, ScenarioTags};
use lrs_bench::{write_json, Cli, Json};
use lrs_crypto::sha256::sha256;
use lrs_host::{decode_frame, SimTime};
use lrs_netsim::fault::PPM_ONE;
use lrs_netsim::Capsule;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLAGS: &[lrs_bench::cli::Flag] = &[
    lrs_bench::cli::positional("<capsule>...", "capsules to run in turn"),
    lrs_bench::cli::valued(
        "--dup-ppm",
        "duplication probability in ppm (default 10000)",
    ),
    lrs_bench::cli::valued(
        "--reorder-ppm",
        "reorder probability in ppm (default 20000)",
    ),
    lrs_bench::cli::valued("--time-scale", "virtual us per wall us (default 10)"),
];

/// The harness's own knobs: what the proxy adds to every capsule.
struct Knobs {
    dup_ppm: u32,
    reorder_ppm: u32,
    time_scale: u64,
}

/// A capsule that passed the check, ready to run.
struct Job {
    path: String,
    capsule: Capsule,
    tags: ScenarioTags,
    /// Hex SHA-256 of the capsule's image: what every node must hold.
    expected_digest: String,
}

/// Outcome of one capsule's swarm run.
struct SwarmRun {
    wall_s: f64,
    reports: Vec<NodeReport>,
}

/// The lossy proxy: receives every node's frames on one socket, applies
/// the capsule's loss model, and forwards each frame along the sender's
/// topology links to the registered nodes. Node addresses are learned
/// from `hello` datagrams and refreshed from the envelope `from` field
/// of data frames, so the map heals even if every hello is lost.
/// Per-destination reordering (and the delivery of every granted copy,
/// duplicate-of-a-reordered-frame included) is [`ReorderRelay`]'s job,
/// unit-tested in the lib.
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
        links.fan_out(from, |dest, verdict| {
            if let Some(addr) = addrs.get(&dest.0) {
                relay.apply(dest.0, datagram, verdict, |f| {
                    let _ = socket.send_to(f, addr);
                });
            }
        });
    }
}

fn spawn_node(
    node_bin: &std::path::Path,
    id: usize,
    proxy: SocketAddr,
    control: SocketAddr,
    capsule: &str,
    time_scale: u64,
) -> Result<Child, String> {
    Command::new(node_bin)
        .args([
            "--id",
            &id.to_string(),
            "--proxy",
            &proxy.to_string(),
            "--control",
            &control.to_string(),
            "--capsule",
            capsule,
            "--time-scale",
            &time_scale.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", node_bin.display()))
}

/// Loads and checks the capsule at `path`, and derives the digest its
/// nodes must end with.
fn load(path: &str) -> Result<Job, String> {
    let capsule = Capsule::load(path).map_err(|e| format!("{path}: {e}"))?;
    let tags = check_capsule(&capsule).map_err(|e| format!("{path}: {e}"))?;
    let image = profile_image(&tags.profile, tags.image_len).map_err(|e| format!("{path}: {e}"))?;
    Ok(Job {
        path: path.to_string(),
        expected_digest: sha256(&image).to_hex(),
        capsule,
        tags,
    })
}

/// Runs one capsule's swarm end-to-end and verifies every node against
/// the capsule's image digest.
fn run_swarm(node_bin: &std::path::Path, job: &Job, knobs: &Knobs) -> Result<SwarmRun, String> {
    let Job {
        path,
        capsule,
        tags,
        expected_digest,
    } = job;
    let scheme = &tags.scheme;
    let nodes = capsule.topology.len();
    let deadline = wall_deadline(capsule, knobs.time_scale);

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
    let links = LossyLinks::new(capsule, knobs.dup_ppm, knobs.reorder_ppm);
    let stop = Arc::new(AtomicBool::new(false));
    let proxy_thread = {
        let stop = Arc::clone(&stop);
        let time_scale = knobs.time_scale;
        std::thread::spawn(move || proxy_loop(proxy, links, time_scale, stop))
    };

    println!(
        "[{scheme}] {path}: spawning {nodes} node processes (proxy {proxy_addr}, control \
         {control_addr}, {} link faults)",
        capsule.faults.len(),
    );
    let start = Instant::now();
    let mut children: Vec<Child> = Vec::new();
    for id in 0..nodes {
        children.push(spawn_node(
            node_bin,
            id,
            proxy_addr,
            control_addr,
            path,
            knobs.time_scale,
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
        let complete = latest.values().filter(|(r, _)| r.complete).count();
        if complete == nodes && latest.values().all(|(r, _)| r.invariants_ok) {
            break true;
        }
        if last_progress.elapsed() >= Duration::from_secs(2) {
            println!(
                "[{scheme}] t={:.1}s: {complete}/{nodes} complete, {} reporting",
                start.elapsed().as_secs_f64(),
                latest.len(),
            );
            last_progress = Instant::now();
        }
        if start.elapsed() > deadline {
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
        let missing: Vec<u32> = (0..nodes as u32)
            .filter(|id| !latest.get(id).map(|(r, _)| r.complete).unwrap_or(false))
            .collect();
        return Err(format!(
            "[{scheme}] {path}: deadline ({deadline:?}) exceeded with {}/{nodes} complete; \
             incomplete nodes: {missing:?}",
            nodes - missing.len(),
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
            Some(d) if d == expected_digest => {}
            other => {
                return Err(format!(
                    "node {} image digest {other:?} != expected {expected_digest}",
                    report.id
                ))
            }
        }
    }
    let mut reports: Vec<NodeReport> = latest.into_values().map(|(r, _)| r).collect();
    reports.sort_by_key(|r| r.id);
    println!(
        "[{scheme}] {nodes} nodes complete in {wall_s:.1} s wall; all digests match {}",
        &expected_digest[..16],
    );
    Ok(SwarmRun { wall_s, reports })
}

fn run() -> Result<(), String> {
    let cli = Cli::parse("swarm", FLAGS).map_err(|e| e.to_string())?;
    let knobs = Knobs {
        dup_ppm: cli
            .parsed_or::<u32>("--dup-ppm", 10_000)
            .map_err(|e| e.to_string())?,
        reorder_ppm: cli
            .parsed_or::<u32>("--reorder-ppm", 20_000)
            .map_err(|e| e.to_string())?,
        time_scale: time_scale(&cli).map_err(|e| e.to_string())?,
    };
    for (name, ppm) in [
        ("--dup-ppm", knobs.dup_ppm),
        ("--reorder-ppm", knobs.reorder_ppm),
    ] {
        if ppm > PPM_ONE {
            return Err(format!("{name} {ppm} exceeds {PPM_ONE} (= certainty)"));
        }
    }
    // Every capsule is checked before the first process spawns.
    let jobs = cli
        .positionals()
        .iter()
        .map(|path| load(path))
        .collect::<Result<Vec<Job>, String>>()?;
    let node_bin = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .with_file_name("node");
    if !node_bin.exists() {
        return Err(format!(
            "{} not found; build it with `cargo build --release --bin node`",
            node_bin.display()
        ));
    }

    let mut rows = Vec::new();
    for job in &jobs {
        let run = run_swarm(&node_bin, job, &knobs)?;
        let total = |count: fn(&NodeReport) -> u64| -> f64 {
            run.reports.iter().map(count).sum::<u64>() as f64
        };
        let medium = &job.capsule.config.medium;
        rows.push(Json::Obj(vec![
            ("capsule".into(), Json::str(&job.path)),
            ("scheme".into(), Json::str(&job.tags.scheme)),
            ("nodes".into(), Json::num(run.reports.len() as u32)),
            ("seed".into(), Json::uint(job.capsule.seed)),
            ("image_bytes".into(), Json::num(job.tags.image_len as u32)),
            (
                "app_loss_ppm".into(),
                Json::num((medium.app_loss * f64::from(PPM_ONE)).round()),
            ),
            (
                "link_faults".into(),
                Json::num(job.capsule.faults.len() as u32),
            ),
            ("wall_s".into(), Json::num(run.wall_s)),
            ("tx_frames".into(), Json::num(total(|r| r.tx_frames))),
            ("rx_frames".into(), Json::num(total(|r| r.rx_frames))),
            ("rx_rejected".into(), Json::num(total(|r| r.rx_rejected))),
        ]));
    }
    let doc = Json::Obj(vec![
        ("experiment".into(), Json::str("swarm")),
        ("dup_ppm".into(), Json::num(knobs.dup_ppm)),
        ("reorder_ppm".into(), Json::num(knobs.reorder_ppm)),
        ("time_scale".into(), Json::uint(knobs.time_scale)),
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
