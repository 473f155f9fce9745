//! One LR-Seluge/Seluge node as a real OS process.
//!
//! Wraps the exact `Protocol` state machine the simulator drives in a
//! real-time [`lrs_host::Host`] clocked by the OS monotonic
//! clock, speaking length-framed `Message` bytes inside the transport
//! envelope over UDP. All data traffic goes to one peer — the swarm
//! proxy — which applies the loss model and fans out to the rest of the
//! swarm.
//!
//! The process reconstructs its entire world (keys, artifacts, image)
//! from the [`SwarmScenario`] flags, so the harness never ships key
//! material or images across process boundaries; every node derives the
//! same world the way capsule replays do.
//!
//! Control protocol (UDP, line-oriented text):
//! * the node sends a `lrs-swarm report ...` line to `--control` every
//!   few hundred milliseconds (and on exit);
//! * the harness sends `lrs-swarm quit` back to stop it.
//!
//! A node that completes keeps running until told to quit: a finished
//! node is a seeder, and its advertisements are what finish the
//! stragglers.

use lr_seluge_repro::swarm::{NodeReport, SwarmNode, SwarmScenario, CONTROL_QUIT};
use lrs_bench::{with_scheme, Cli, Matched};
use lrs_host::{Host, HostConfig, NodeId, UdpTransport};
use std::net::{SocketAddr, UdpSocket};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const FLAGS: &[lrs_bench::cli::Flag] = &[
    lrs_bench::cli::valued("--id", "this node's id (0 = base station)"),
    lrs_bench::cli::valued("--proxy", "data address of the swarm proxy"),
    lrs_bench::cli::valued("--control", "control address of the swarm harness"),
    lrs_bench::cli::valued("--scheme", "lr-seluge, seluge or deluge"),
    lrs_bench::cli::valued("--profile", "parameter profile (default campaign)"),
    lrs_bench::cli::valued("--image-bytes", "image size (default 2048)"),
    lrs_bench::cli::valued(
        "--key-context",
        "key-derivation context (default \"swarm keys\")",
    ),
    lrs_bench::cli::valued("--seed", "scenario seed (default 7)"),
    lrs_bench::cli::valued("--time-scale", "virtual us per wall us (default 10)"),
    lrs_bench::cli::valued(
        "--deadline-s",
        "wall-clock deadline in seconds (default 120)",
    ),
];

/// How often the node pushes a status line to the harness.
const REPORT_EVERY: Duration = Duration::from_millis(250);

fn required<'a>(cli: &'a Cli, flag: &str) -> Result<&'a str, String> {
    cli.value(flag)
        .ok_or_else(|| format!("{flag} is required\n{}", cli.usage()))
}

fn run() -> Result<(), String> {
    let cli = Cli::parse("node", FLAGS).map_err(|e| e.to_string())?;
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
    let scenario = SwarmScenario {
        profile: cli.value("--profile").unwrap_or("campaign").to_string(),
        image_len: cli
            .parsed_or::<usize>("--image-bytes", 2048)
            .map_err(|e| e.to_string())?,
        key_context: cli
            .value("--key-context")
            .unwrap_or("swarm keys")
            .to_string(),
        seed: cli
            .parsed_or::<u64>("--seed", 7)
            .map_err(|e| e.to_string())?,
    };
    let cfg = HostConfig {
        time_scale: cli
            .parsed_or::<u64>("--time-scale", 10)
            .map_err(|e| e.to_string())?,
        ..HostConfig::default()
    };
    let deadline = Duration::from_secs(
        cli.parsed_or::<u64>("--deadline-s", 120)
            .map_err(|e| e.to_string())?,
    );

    with_scheme!(
        required(&cli, "--scheme")?,
        S => serve::<S>(id, proxy, control_addr, &scenario, cfg, deadline)?
    )
}

/// Runs scheme family `S`'s node `id` until told to quit or `deadline`.
fn serve<S: Matched>(
    id: NodeId,
    proxy: SocketAddr,
    control_addr: SocketAddr,
    scenario: &SwarmScenario,
    cfg: HostConfig,
    deadline: Duration,
) -> Result<(), String> {
    let protocol: SwarmNode<S> = scenario.build_node(id)?;

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

    let mut host = Host::new(id, protocol, transport, scenario.seed, cfg);
    host.init().map_err(|e| format!("init: {e}"))?;

    let start = Instant::now();
    let mut last_report = Instant::now() - REPORT_EVERY;
    let mut quit = false;
    while !quit && start.elapsed() < deadline {
        host.step().map_err(|e| format!("step: {e}"))?;
        if last_report.elapsed() >= REPORT_EVERY {
            send_report(&control, control_addr, &host);
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
        send_report(&control, control_addr, &host);
    }
    Ok(())
}

fn send_report<S: Matched>(
    control: &UdpSocket,
    to: SocketAddr,
    host: &Host<SwarmNode<S>, UdpTransport>,
) {
    let status = host.protocol().status();
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
