//! One LR-Seluge/Seluge node as a real OS process.
//!
//! ```text
//! node --id <n> --proxy <addr> --control <addr> --capsule <file> [--time-scale K]
//! ```
//!
//! Wraps the exact `Protocol` state machine the simulator drives in a
//! real-time [`lrs_host::Host`] clocked by the OS monotonic
//! clock, speaking length-framed `Message` bytes inside the transport
//! envelope over UDP. All data traffic goes to one peer — the swarm
//! proxy — which applies the loss model and fans out to the rest of the
//! swarm.
//!
//! The process reconstructs its entire world (keys, artifacts, image)
//! from the capsule's scenario tags, seeds its host from the capsule's
//! seed and takes its airtime constants from the capsule's medium, so
//! the harness never ships key material or images across process
//! boundaries; every node derives the same world the way capsule
//! replays do. It runs for the capsule's deadline, scaled to wall time.
//!
//! Control protocol (UDP, line-oriented text):
//! * the node sends a `lrs-swarm report ...` line to `--control` every
//!   few hundred milliseconds (and on exit);
//! * the harness sends `lrs-swarm quit` back to stop it.
//!
//! A node that completes keeps running until told to quit: a finished
//! node is a seeder, and its advertisements are what finish the
//! stragglers.

use lr_seluge_repro::swarm::{
    check_capsule, status, time_scale, wall_deadline, NodeReport, CONTROL_QUIT,
};
use lrs_bench::capsules::{profile_deployment, ScenarioTags};
use lrs_bench::{with_scheme, Cli, Matched};
use lrs_deluge::deployment::{Deployment, Node};
use lrs_host::{Host, HostConfig, NodeId, UdpTransport};
use lrs_netsim::Capsule;
use std::net::{SocketAddr, UdpSocket};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const FLAGS: &[lrs_bench::cli::Flag] = &[
    lrs_bench::cli::valued("--id", "this node's id (0 = base station)"),
    lrs_bench::cli::valued("--proxy", "data address of the swarm proxy"),
    lrs_bench::cli::valued("--control", "control address of the swarm harness"),
    lrs_bench::cli::valued("--capsule", "the run to join, as a capsule file"),
    lrs_bench::cli::valued("--time-scale", "virtual us per wall us (default 10)"),
];

/// How often the node pushes a status line to the harness.
const REPORT_EVERY: Duration = Duration::from_millis(250);

fn required<'a>(cli: &'a Cli, flag: &str) -> Result<&'a str, String> {
    cli.value(flag)
        .ok_or_else(|| format!("{flag} is required\n{}", cli.usage()))
}

fn run() -> Result<(), String> {
    let cli = Cli::parse("node", FLAGS).map_err(|e| e.to_string())?;
    let time_scale = time_scale(&cli).map_err(|e| e.to_string())?;
    let id = NodeId(
        required(&cli, "--id")?
            .parse()
            .map_err(|e| format!("bad --id: {e}"))?,
    );
    let proxy: SocketAddr = required(&cli, "--proxy")?
        .parse()
        .map_err(|e| format!("bad --proxy: {e}"))?;
    let control_addr: SocketAddr = required(&cli, "--control")?
        .parse()
        .map_err(|e| format!("bad --control: {e}"))?;
    let path = required(&cli, "--capsule")?;
    let capsule = Capsule::load(path).map_err(|e| format!("{path}: {e}"))?;
    let tags = check_capsule(&capsule).map_err(|e| format!("{path}: {e}"))?;
    if id.index() >= capsule.topology.len() {
        return Err(format!(
            "--id {} is outside the capsule's {}-node topology",
            id.0,
            capsule.topology.len()
        ));
    }
    with_scheme!(
        tags.scheme.as_str(),
        S => serve::<S>(id, proxy, control_addr, &capsule, &tags, time_scale)?
    )
}

/// Runs scheme family `S`'s node `id` of `capsule` until told to quit
/// or the capsule's deadline passes.
fn serve<S: Matched>(
    id: NodeId,
    proxy: SocketAddr,
    control_addr: SocketAddr,
    capsule: &Capsule,
    tags: &ScenarioTags,
    time_scale: u64,
) -> Result<(), String> {
    let deployment = profile_deployment::<S>(&tags.profile, tags.image_len, &tags.key_context)?;

    let any_port: SocketAddr = "127.0.0.1:0"
        .parse()
        .map_err(|e| format!("loopback bind address: {e}"))?;
    let mut transport = UdpTransport::bind(any_port, vec![proxy])
        .map_err(|e| format!("binding data socket: {e}"))?;
    // Register with the proxy before any data flows so packets can
    // reach us from the first exchange; the proxy also refreshes its
    // map from every data frame's envelope, so one lost hello only
    // delays, never prevents, registration.
    {
        use lrs_host::Transport;
        let hello = format!("lrs-swarm hello {}", id.0);
        for _ in 0..3 {
            transport
                .send(hello.as_bytes())
                .map_err(|e| format!("hello: {e}"))?;
        }
    }

    let control = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("control socket: {e}"))?;
    control
        .set_nonblocking(true)
        .map_err(|e| format!("control socket: {e}"))?;

    let medium = &capsule.config.medium;
    let cfg = HostConfig {
        us_per_byte: medium.us_per_byte,
        per_packet_overhead_us: medium.per_packet_overhead_us,
        time_scale,
    };
    let node = deployment.node(id, NodeId(0));
    let mut host = Host::new(id, node, transport, capsule.seed, cfg);
    host.init().map_err(|e| format!("init: {e}"))?;

    let deadline = wall_deadline(capsule, time_scale);
    let start = Instant::now();
    let mut last_report = Instant::now() - REPORT_EVERY;
    let mut quit = false;
    while !quit && start.elapsed() < deadline {
        host.step().map_err(|e| format!("step: {e}"))?;
        if last_report.elapsed() >= REPORT_EVERY {
            send_report(&control, control_addr, &deployment, &host);
            last_report = Instant::now();
        }
        let mut buf = [0u8; 256];
        while let Ok((n, _src)) = control.recv_from(&mut buf) {
            if &buf[..n] == CONTROL_QUIT {
                quit = true;
            }
        }
    }
    // Final report, repeated: the control channel is UDP too.
    for _ in 0..3 {
        send_report(&control, control_addr, &deployment, &host);
    }
    Ok(())
}

fn send_report<S: Matched>(
    control: &UdpSocket,
    to: SocketAddr,
    deployment: &Deployment<S>,
    host: &Host<Node<S>, UdpTransport>,
) {
    let status = status(deployment, host.protocol());
    let counters = host.report();
    let line = NodeReport {
        id: host.id().0,
        complete: status.complete,
        invariants_ok: status.invariants_ok,
        digest: status.digest,
        tx_frames: counters.tx_frames,
        rx_frames: counters.rx_frames,
        rx_rejected: counters.rx_rejected,
    }
    .encode();
    // Best-effort: a lost status line is replaced by the next tick.
    let _ = control.send_to(line.as_bytes(), to);
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("node: {e}");
            ExitCode::FAILURE
        }
    }
}
