//! Isolated layer probes: each layer's public entry point timed on its
//! own, on the shapes of the workload being reported (`k`, `n`, payload
//! length, Merkle depth, the recorded transmission schedule).
//!
//! A probe is not a span: nothing else runs around it, caches are warm,
//! and the number says what one call costs in isolation. Multiplied by
//! an exact count it gives the `*.est_busy_s` estimates, which can be
//! held against the span-measured busy times.

use crate::stats::median;
use crate::workloads::Shapes;
use crate::wrap::TxRecord;
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::merkle::MerkleTree;
use lrs_crypto::puzzle::{Puzzle, PuzzleKeyChain};
use lrs_crypto::schnorr::Keypair;
use lrs_deluge::wire::Message;
use lrs_erasure::{ErasureCode, ReedSolomon};
use lrs_host::{decode_frame, encode_frame, TimerWheel};
use lrs_netsim::event::{Event, EventQueue};
use lrs_netsim::medium::{Medium, MediumConfig};
use lrs_netsim::node::{NodeId, PacketKind, TimerId};
use lrs_netsim::time::{Duration as SimDuration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_rng::DetRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe results, by per-layer metric name.
pub type Probed = Vec<(&'static str, f64)>;

/// Nanoseconds per call of `op`: batches sized to ~100 us are timed
/// until `budget` is spent (at least five), and the median batch wins.
pub fn ns_per_op(budget: Duration, mut op: impl FnMut()) -> f64 {
    let once = Instant::now();
    op();
    let first = once.elapsed().as_nanos().max(1) as u64;
    let batch = (100_000 / first).clamp(1, 10_000);
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// Probes that depend only on the workload's packet and code shapes.
pub fn layer_probes(shapes: &Shapes, budget: Duration) -> Probed {
    let mut out = Probed::new();
    let mut rng = DetRng::seed_from_u64(0x70_726f_6265);
    let mut payload = vec![0u8; shapes.payload_len];
    rng.fill_bytes(&mut payload);

    // crypto: the per-packet hash, alone and through the 8-lane batch.
    out.push((
        "crypto.sha256.pkt_ns",
        ns_per_op(budget, || {
            black_box(lr_seluge::packet_hash(1, 2, 7, black_box(&payload)));
        }),
    ));
    let eight: Vec<Vec<u8>> = (0..8u8)
        .map(|i| payload.iter().map(|b| b ^ i).collect())
        .collect();
    out.push((
        "crypto.sha256.batch8_pkt_ns",
        ns_per_op(budget, || {
            black_box(lr_seluge::packet_hash_batch(1, 2, black_box(&eight)));
        }) / 8.0,
    ));

    // crypto: one hash-page packet's Merkle path at the workload's depth.
    let leaves: Vec<Vec<u8>> = (0..1usize << shapes.merkle_depth)
        .map(|i| vec![i as u8; 48])
        .collect();
    let tree = MerkleTree::build(leaves.iter().map(|l| l.as_slice()));
    let (root, proof) = (tree.root(), tree.proof(3 % leaves.len()));
    out.push((
        "crypto.merkle.verify_ns",
        ns_per_op(budget, || {
            black_box(proof.verify(black_box(&leaves[3 % leaves.len()]), &root));
        }),
    ));

    // crypto: signature, puzzle, control-packet MAC.
    let keypair = Keypair::from_seed(b"ledger probe keys");
    let message = [0x5au8; 32];
    let signature = keypair.sign(&message);
    let public = keypair.public();
    out.push((
        "crypto.schnorr.verify_us",
        ns_per_op(budget, || {
            black_box(public.verify(black_box(&message), &signature));
        }) / 1e3,
    ));
    out.push((
        "crypto.schnorr.sign_us",
        ns_per_op(budget, || {
            black_box(keypair.sign(black_box(&message)));
        }) / 1e3,
    ));
    let chain = PuzzleKeyChain::generate(b"ledger probe keys", 5);
    let puzzle = Puzzle::new(chain.anchor(), shapes.puzzle_strength);
    let solution = chain.solve(&puzzle, 1, &message);
    out.push((
        "crypto.puzzle.check_ns",
        ns_per_op(budget, || {
            black_box(puzzle.verify(1, black_box(&message), &solution));
        }),
    ));
    let cluster = ClusterKey::derive(b"ledger probe keys", 0);
    let adv = Message::adv_mac_parts(NodeId(9), 1, 4);
    out.push((
        "crypto.cluster.mac_ns",
        ns_per_op(budget, || {
            black_box(cluster.tag(&[&b"adv"[..], &adv[0][..], &adv[1][..], &adv[2][..]]));
        }),
    ));

    // erasure: encode, and decode with a new versus a repeated pattern.
    match shapes.code {
        Some((k, n)) => erasure_probes(&mut out, &mut rng, k, n, shapes.payload_len, budget),
        None => {
            for name in [
                "erasure.rs.encode_us",
                "erasure.rs.decode_fresh_us",
                "erasure.rs.decode_repeat_us",
            ] {
                out.push((name, 0.0));
            }
        }
    }

    // deluge: the data packet's wire codec.
    let data = Message::Data {
        version: 1,
        item: 2,
        index: 7,
        payload: payload.clone(),
    };
    let wire = data.to_bytes();
    out.push((
        "deluge.wire.encode_ns",
        ns_per_op(budget, || {
            black_box(black_box(&data).to_bytes());
        }),
    ));
    out.push((
        "deluge.wire.decode_ns",
        ns_per_op(budget, || {
            black_box(Message::from_bytes(black_box(&wire)));
        }),
    ));

    // host: transport envelope and the per-node timer wheel.
    let frame = encode_frame(NodeId(3), PacketKind::Data, &wire);
    out.push((
        "host.envelope.encode_ns",
        ns_per_op(budget, || {
            black_box(encode_frame(NodeId(3), PacketKind::Data, black_box(&wire)));
        }),
    ));
    out.push((
        "host.envelope.decode_ns",
        ns_per_op(budget, || {
            black_box(decode_frame(black_box(&frame)));
        }),
    ));
    let mut wheel = TimerWheel::new();
    let mut now = 0u64;
    out.push((
        "host.timer_wheel.arm_pop_ns",
        ns_per_op(budget, || {
            // The engine's five timers, armed and drained once each.
            for t in 0..5 {
                wheel.arm(TimerId(t), SimTime(now + u64::from(t)));
            }
            now += 10;
            while black_box(wheel.pop_due(SimTime(now))).is_some() {}
        }) / 5.0,
    ));
    out
}

fn erasure_probes(
    out: &mut Probed,
    rng: &mut DetRng,
    k: usize,
    n: usize,
    block_len: usize,
    budget: Duration,
) {
    let code = ReedSolomon::new(k, n).expect("workload code parameters are valid");
    let blocks: Vec<Vec<u8>> = (0..k)
        .map(|_| {
            let mut b = vec![0u8; block_len];
            rng.fill_bytes(&mut b);
            b
        })
        .collect();
    let encoded = code.encode(&blocks).expect("consistent shapes");
    out.push((
        "erasure.rs.encode_us",
        ns_per_op(budget, || {
            black_box(code.encode(black_box(&blocks)).expect("consistent shapes"));
        }) / 1e3,
    ));

    // A ~30 % erasure pattern: the first k survivors of a shuffle.
    let mut order: Vec<usize> = (0..n).collect();
    let mut scratch = Vec::new();
    let pick = |order: &mut Vec<usize>, rng: &mut DetRng| -> Vec<usize> {
        rng.shuffle(order);
        let mut kept: Vec<usize> = order[..k].to_vec();
        kept.sort_unstable();
        kept
    };
    // Fresh: a pattern the decode-matrix cache has never seen, so each
    // call inverts. A new code instance per sample keeps the cache cold
    // even if the shuffle repeats.
    let mut fresh = Vec::new();
    let started = Instant::now();
    while fresh.len() < 5 || started.elapsed() < budget {
        let cold = ReedSolomon::new(k, n).expect("valid");
        let kept = pick(&mut order, rng);
        let subset: Vec<(usize, &[u8])> =
            kept.iter().map(|&j| (j, encoded[j].as_slice())).collect();
        let t = Instant::now();
        cold.decode_into(black_box(&subset), block_len, &mut scratch)
            .expect("k blocks decode");
        fresh.push(t.elapsed().as_nanos() as f64);
    }
    out.push(("erasure.rs.decode_fresh_us", median(&fresh) / 1e3));

    let kept = pick(&mut order, rng);
    let subset: Vec<(usize, &[u8])> = kept.iter().map(|&j| (j, encoded[j].as_slice())).collect();
    out.push((
        "erasure.rs.decode_repeat_us",
        ns_per_op(budget, || {
            code.decode_into(black_box(&subset), block_len, &mut scratch)
                .expect("k blocks decode");
        }) / 1e3,
    ));
}

/// Replays the traced pass's recorded transmission schedule through a
/// standalone [`Medium`]: every recorded broadcast is begun at its
/// recorded on-air time and delivered to each audible neighbour at the
/// end of its airtime, in time order, exactly the two calls the engine
/// makes. Returns `(begin_broadcast ns/call, deliver ns/call)`.
pub fn medium_replay(
    topology: &Topology,
    config: MediumConfig,
    schedule: &[TxRecord],
) -> (f64, f64) {
    if schedule.is_empty() {
        return (0.0, 0.0);
    }
    let mut medium = Medium::new(config, topology.len(), 0x6d65_6469);
    // (end time, tx id, receiver), earliest first.
    let mut pending: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
    let mut due: Vec<(SimTime, u64, NodeId)> = Vec::new();
    let (mut begin_ns, mut begins) = (0u64, 0u64);
    let (mut deliver_ns, mut delivers) = (0u64, 0u64);
    let mut sorted: Vec<&TxRecord> = schedule.iter().collect();
    sorted.sort_by_key(|tx| tx.at);
    let mut drain = |medium: &mut Medium,
                     pending: &mut BinaryHeap<Reverse<(SimTime, u64, u32)>>,
                     until: Option<SimTime>| {
        due.clear();
        while let Some(&Reverse((end, id, to))) = pending.peek() {
            if until.is_some_and(|t| end > t) {
                break;
            }
            pending.pop();
            due.push((end, id, NodeId(to)));
        }
        let t = Instant::now();
        for &(end, id, to) in &due {
            black_box(medium.deliver(end, id, to, topology));
        }
        deliver_ns += t.elapsed().as_nanos() as u64;
        delivers += due.len() as u64;
    };
    for tx in sorted {
        drain(&mut medium, &mut pending, Some(tx.at));
        let t = Instant::now();
        let info = medium.begin_broadcast(tx.at, tx.from, tx.bytes, topology);
        begin_ns += t.elapsed().as_nanos() as u64;
        begins += 1;
        for link in topology.links_from(tx.from) {
            pending.push(Reverse((info.end, info.id, link.to.0)));
        }
    }
    drain(&mut medium, &mut pending, None);
    (
        begin_ns as f64 / begins.max(1) as f64,
        deliver_ns as f64 / delivers.max(1) as f64,
    )
}

/// One push plus one pop on an [`EventQueue`] held at `depth` pending
/// delivery events (the traced pass's mean in-flight depth).
pub fn eventq_push_pop_ns(depth: usize, budget: Duration) -> f64 {
    let mut queue = EventQueue::new();
    let data = std::sync::Arc::new(vec![0u8; 80]);
    let mut rng = DetRng::seed_from_u64(0x6576_7471);
    let mut now = 0u64;
    let event = |to: u32, tx_id: u64| Event::Deliver {
        to: NodeId(to),
        from: NodeId(0),
        data: std::sync::Arc::clone(&data),
        kind: PacketKind::Data,
        tx_id,
    };
    for i in 0..depth.max(1) {
        let at = SimTime(rng.gen_range(0..40_000u64));
        queue.push(at, event(i as u32, i as u64));
    }
    ns_per_op(budget, || {
        // New events land up to one data-packet airtime ahead of the
        // clock, as deliveries do.
        let ahead = SimDuration::from_micros(rng.gen_range(0..40_000u64));
        queue.push(SimTime(now) + ahead, event(1, now));
        if let Some((at, ev)) = queue.pop() {
            now = now.max(at.0);
            black_box(ev);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::per_layer;
    use crate::names::Kind;

    fn shapes() -> Shapes {
        Shapes {
            code: Some((8, 12)),
            payload_len: 56,
            merkle_depth: 3,
            puzzle_strength: 4,
            network: None,
        }
    }

    #[test]
    fn every_probe_is_a_registered_probe_metric() {
        let probed = layer_probes(&shapes(), Duration::from_millis(1));
        for (name, value) in &probed {
            let entry = per_layer(name).unwrap_or_else(|| panic!("{name} is not registered"));
            assert_eq!(entry.kind, Kind::Probe, "{name}");
            assert!(*value > 0.0, "{name} measured nothing");
        }
    }

    #[test]
    fn no_code_means_zero_erasure_probes() {
        let probed = layer_probes(
            &Shapes {
                code: None,
                ..shapes()
            },
            Duration::from_millis(1),
        );
        for (name, value) in probed {
            if name.starts_with("erasure.") {
                assert_eq!(value, 0.0, "{name}");
            }
        }
    }

    #[test]
    fn medium_replay_visits_every_audible_neighbour() {
        let topology = Topology::line(4, 1.0);
        let schedule = [
            TxRecord {
                at: SimTime(0),
                from: NodeId(1),
                bytes: 30,
            },
            TxRecord {
                at: SimTime(50_000),
                from: NodeId(2),
                bytes: 30,
            },
        ];
        let (begin, deliver) = medium_replay(&topology, MediumConfig::default(), &schedule);
        assert!(begin > 0.0 && deliver > 0.0);
        assert_eq!(
            medium_replay(&topology, MediumConfig::default(), &[]),
            (0.0, 0.0)
        );
    }

    #[test]
    fn eventq_probe_runs_at_depth() {
        assert!(eventq_push_pop_ns(64, Duration::from_millis(1)) > 0.0);
    }
}
