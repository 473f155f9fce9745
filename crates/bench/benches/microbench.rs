//! Microbenchmarks for the primitives every packet exercises: hashing,
//! GF(256) slice kernels, erasure coding, Merkle verification,
//! signature verification, the TX scheduler, the simulator's event
//! queue and topology construction, and the wire parser. These quantify
//! the per-packet computation overhead discussed in the paper's §V-B.
//!
//! Self-timed (`harness = false`): the registry is unreachable in this
//! environment, so Criterion is unavailable. Each benchmark warms up,
//! then reports the median of several timed batches.
//!
//! Run with `cargo bench -p lrs-bench --bench microbench`. Options
//! (after `--`):
//!
//! * `--smoke`       short batches — a fast CI regression canary
//! * `--json PATH`   also write results as JSON (compare against the
//!   committed `BENCH_micro.json` baseline; see EXPERIMENTS.md)

use lr_seluge::GreedyRoundRobinPolicy;
use lrs_crypto::bignum::U256;
use lrs_crypto::cluster::ClusterKey;
use lrs_crypto::ec::{double_mul, fmul, fsqr, generator};
use lrs_crypto::merkle::MerkleTree;
use lrs_crypto::puzzle::{Puzzle, PuzzleKeyChain};
use lrs_crypto::schnorr::Keypair;
use lrs_crypto::sha256::{sha256, Sha256};
use lrs_crypto::ShaKernel;
use lrs_deluge::policy::{TxPolicy, UnionPolicy};
use lrs_deluge::wire::{BitVec, Frame, Message};
use lrs_erasure::gf256::{slice_mul_add_assign, Gf};
use lrs_erasure::kernel::Kernel;
use lrs_erasure::matrix::Matrix;
use lrs_erasure::{ErasureCode, ReedSolomon};
use lrs_host::node::{NodeId, TimerId};
use lrs_host::time::SimTime;
use lrs_netsim::event::{Event, EventQueue};
use lrs_netsim::topology::Topology;
use lrs_rng::DetRng;
use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Target duration of one timed batch (shrunk by `--smoke`).
static BATCH: OnceLock<Duration> = OnceLock::new();
/// Number of timed batches per benchmark (shrunk by `--smoke`).
static SAMPLES: OnceLock<usize> = OnceLock::new();
/// Collected `(name, median_seconds, bytes)` rows for `--json`.
static RESULTS: Mutex<Vec<(String, f64, u64)>> = Mutex::new(Vec::new());

fn batch_target() -> Duration {
    *BATCH.get_or_init(|| Duration::from_millis(50))
}

fn sample_count() -> usize {
    *SAMPLES.get_or_init(|| 5)
}

/// Times `f` over enough iterations to fill batches of the target
/// duration and prints the median per-iteration latency (and throughput
/// when `bytes > 0`).
fn bench(name: &str, bytes: u64, mut f: impl FnMut()) {
    // Calibrate: how many iterations fit in one batch?
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t.elapsed();
        if dt > batch_target() || iters > 1 << 24 {
            break;
        }
        iters = (iters * 4).max(4);
    }
    let mut samples: Vec<f64> = (0..sample_count())
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    if bytes > 0 {
        let mibps = bytes as f64 / median / (1024.0 * 1024.0);
        println!(
            "{name:<32} {:>12.3} µs/iter {mibps:>10.1} MiB/s",
            median * 1e6
        );
    } else {
        println!("{name:<32} {:>12.3} µs/iter", median * 1e6);
    }
    RESULTS
        .lock()
        .expect("results lock")
        .push((name.to_string(), median, bytes));
}

fn bench_sha256() {
    for size in [72usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        bench(&format!("sha256/{size}B"), size as u64, || {
            black_box(sha256(black_box(&data)));
        });
    }
    // What one data-packet reception costs: the four-part
    // `packet_hash` receivers call (three 2-byte header fields and the
    // 72-byte payload, 78 bytes) through the one-message-at-a-time
    // hasher. The dispatched entry shows what production code gets; the
    // pinned ones isolate the scalar reference and SHA-NI on the bare
    // payload.
    let payload = vec![0xabu8; 72];
    bench("sha256/packet_hash_78B", 78, || {
        black_box(lr_seluge::packet_hash(1, 2, 7, black_box(&payload)));
    });
    for k in ShaKernel::supported() {
        bench(&format!("sha256/single_{}_72B", k.name()), 72, || {
            let mut h = Sha256::with_kernel(k);
            h.update(black_box(&payload));
            black_box(h.finalize());
        });
    }
}

fn bench_puzzle() {
    // The base station's puzzle search over a signature-body-sized
    // message: at strength 12 this key and message take 2 116 attempts
    // (the solution is 2 115), one compression each from the
    // `key ‖ message` midstate.
    let chain = PuzzleKeyChain::generate(b"bench", 1);
    let puzzle = Puzzle::new(chain.anchor(), 12);
    let message = [0x5au8; 96];
    bench("puzzle/solve_strength12", 0, || {
        black_box(chain.solve(&puzzle, 1, black_box(&message)));
    });
}

fn bench_cluster_mac() {
    // The per-reception cost of a control packet: the cluster-key MAC
    // over an advertisement's 15 authenticated bytes.
    let key = ClusterKey::derive(b"bench", 0);
    let adv = Message::adv_mac_parts(NodeId(9), 1, 4);
    bench("hmac/cluster_tag_adv", 0, || {
        black_box(key.tag(black_box(&[&b"adv"[..], &adv[0], &adv[1], &adv[2]])));
    });
}

fn bench_gf_kernels() {
    // 72 B is the paper's block length; 4 KiB stresses throughput.
    for size in [72usize, 4096] {
        let src: Vec<u8> = (0..size).map(|i| (i * 37 % 256) as u8).collect();
        let mut dst: Vec<u8> = (0..size).map(|i| (i * 11 % 256) as u8).collect();
        let coeff = Gf(0x8e);
        let label = if size < 1024 {
            format!("{size}B")
        } else {
            format!("{}KiB", size / 1024)
        };
        bench(&format!("gf/mul_slice_{label}"), size as u64, || {
            slice_mul_add_assign(black_box(&mut dst), black_box(coeff), black_box(&src));
        });
        // Every kernel this CPU can run, pinned explicitly — the
        // dispatched entry above shows what production code gets; these
        // isolate each implementation for cross-kernel comparison (the
        // `scalar` row doubles as the pre-SIMD reference).
        for k in Kernel::supported() {
            bench(
                &format!("gf/mul_slice_{}_{label}", k.name()),
                size as u64,
                || {
                    lrs_erasure::kernel::mul_add_assign(
                        black_box(k),
                        black_box(&mut dst),
                        black_box(coeff),
                        black_box(&src),
                    );
                },
            );
        }
    }
}

fn bench_matrix() {
    // The decode-time inversion at the paper's k = 32: a random
    // Vandermonde row subset, as produced by a parity-heavy reception.
    let k = 32;
    let v = Matrix::vandermonde(48, k);
    let rows: Vec<usize> = (16..48).collect();
    let sub = v.select_rows(&rows);
    bench("matrix/inverse_k32", 0, || {
        black_box(black_box(&sub).inverse().unwrap());
    });
}

fn bench_reed_solomon() {
    // Constructing the code, as every node of a simulated fleet does
    // (after the first call this is a lookup of the shared generator).
    bench("rs/new_32_48", 0, || {
        black_box(ReedSolomon::new(black_box(32), 48).unwrap());
    });
    // The paper's page shape: k = 32, n = 48, 72-byte blocks.
    let code = ReedSolomon::new(32, 48).unwrap();
    let blocks: Vec<Vec<u8>> = (0..32)
        .map(|i| (0..72).map(|j| ((i * 7 + j) % 256) as u8).collect())
        .collect();
    let encoded = code.encode(&blocks).unwrap();
    bench("rs/encode_k32_n48", (32 * 72) as u64, || {
        black_box(code.encode(black_box(&blocks)).unwrap());
    });
    // Worst-case decode: all parity blocks, so 16 of the 32 sources are
    // erased and solved for.
    let parity: Vec<(usize, &[u8])> = (16..48).map(|i| (i, encoded[i].as_slice())).collect();
    let mut page = Vec::new();
    bench("rs/decode_parity_k32_n48", (32 * 72) as u64, || {
        code.decode_into(black_box(&parity), 72, &mut page).unwrap();
        black_box(&page);
    });
    // The pattern the workloads see at ~30 % loss: the first k
    // survivors of a seeded shuffle (this seed erases 10 sources).
    let mut order: Vec<usize> = (0..48).collect();
    DetRng::seed_from_u64(0x7273_3330).shuffle(&mut order);
    let survivors: Vec<(usize, &[u8])> = order[..32]
        .iter()
        .map(|&i| (i, encoded[i].as_slice()))
        .collect();
    bench("rs/decode_erasure30_k32_n48", (32 * 72) as u64, || {
        code.decode_into(black_box(&survivors), 72, &mut page)
            .unwrap();
        black_box(&page);
    });
    // Best-case decode: systematic blocks (memcpy path).
    let systematic: Vec<(usize, &[u8])> = (0..32).map(|i| (i, encoded[i].as_slice())).collect();
    bench("rs/decode_systematic_k32_n48", (32 * 72) as u64, || {
        code.decode_into(black_box(&systematic), 72, &mut page)
            .unwrap();
        black_box(&page);
    });
}

fn bench_merkle() {
    let leaves: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 48]).collect();
    let tree = MerkleTree::build(leaves.iter().map(|l| l.as_slice()));
    let proof = tree.proof(5);
    let root = tree.root();
    bench("merkle/build_16_leaves", 0, || {
        black_box(MerkleTree::build(
            black_box(&leaves).iter().map(|l| l.as_slice()),
        ));
    });
    bench("merkle/verify_proof_depth4", 0, || {
        assert!(proof.verify(black_box(&leaves[5]), &root));
    });
}

fn bench_signature() {
    // The layers under a verification: field multiplication and squaring
    // (~2 000 per verify), then the two-scalar ladder itself.
    let a = U256::from_be_bytes(&sha256(b"bench a").0);
    let b = U256::from_be_bytes(&sha256(b"bench b").0);
    bench("ec/fmul", 0, || {
        black_box(fmul(black_box(a), black_box(b)));
    });
    bench("ec/fsqr", 0, || {
        black_box(fsqr(black_box(a)));
    });
    bench("ec/double_mul", 0, || {
        black_box(double_mul(black_box(&a), black_box(&b), generator()));
    });
    let kp = Keypair::from_seed(b"bench");
    let msg = [0x42u8; 32];
    let sig = kp.sign(&msg);
    bench("schnorr/sign", 0, || {
        black_box(kp.sign(black_box(&msg)));
    });
    bench("schnorr/verify", 0, || {
        assert!(kp.public().verify(black_box(&msg), &sig));
    });
}

fn make_snacks(n: usize, z: usize) -> Vec<(NodeId, BitVec)> {
    (0..z)
        .map(|v| {
            let mut bits = BitVec::zeros(n);
            for j in 0..n {
                if (j * 31 + v * 17) % 3 != 0 {
                    bits.set(j, true);
                }
            }
            (NodeId(v as u32), bits)
        })
        .collect()
}

fn bench_scheduler() {
    let (k, n, z) = (32u16, 48usize, 20usize);
    let snacks = make_snacks(n, z);
    bench("sched/greedy_drain_20_neighbors", 0, || {
        let mut p = GreedyRoundRobinPolicy::new();
        for (id, bits) in &snacks {
            let q = bits.count_ones() as u16;
            let d = (q + k).saturating_sub(n as u16).max(1);
            p.on_snack(*id, 0, bits, d);
        }
        while let Some(x) = p.next() {
            black_box(x);
        }
    });
    bench("sched/union_drain_20_neighbors", 0, || {
        let mut p = UnionPolicy::new();
        for (id, bits) in &snacks {
            p.on_snack(*id, 0, bits, 1);
        }
        while let Some(x) = p.next() {
            black_box(x);
        }
    });
}

fn bench_event_queue() {
    // One push and one pop on a queue held at the mean heap lengths the
    // ledger measured: ~208 on `onehop_mc`, ~8 216 on `grid_wide_seluge`.
    // New events land up to one data-packet airtime ahead of the clock.
    for depth in [208usize, 8216] {
        let mut rng = lrs_rng::DetRng::seed_from_u64(0x6576_7471);
        let mut queue = EventQueue::new();
        let timer = |generation| Event::Timer {
            node: NodeId(1),
            timer: TimerId(0),
            generation,
        };
        for i in 0..depth {
            queue.push(SimTime(rng.gen_range(0..40_000u64)), timer(i as u64));
        }
        let mut now = 0u64;
        bench(&format!("netsim/eventq_push_pop_{depth}"), 0, || {
            let at = SimTime(now + rng.gen_range(0..40_000u64));
            queue.push(at, timer(now));
            if let Some((at, event)) = queue.pop() {
                now = now.max(at.0);
                black_box(event);
            }
        });
    }
}

fn bench_topology() {
    // One seeded grid build each for the ledger's grids: the Table II
    // tight 15x15 grid (`grid_dense_lr` builds 8 per body) and the 56x56
    // `grid_wide_seluge` fleet.
    for (side, spacing) in [(15usize, 8.0), (56, 10.0)] {
        let mut seed = 0u64;
        bench(&format!("netsim/topology_grid_{side}x{side}"), 0, || {
            seed += 1;
            black_box(Topology::grid(side, spacing, seed));
        });
    }
}

fn bench_wire() {
    // What every reception does first: the borrowed parse of a data
    // packet at the paper's 72-byte payload.
    let bytes = Message::Data {
        version: 1,
        item: 2,
        index: 7,
        payload: vec![0xA5; 72],
    }
    .to_bytes();
    bench("wire/parse_data_72B", 72, || {
        black_box(Frame::parse(black_box(&bytes)));
    });
}

/// Writes the collected results as a small hand-rolled JSON document
/// with the same shape as the committed `BENCH_micro.json` baseline.
fn write_json(path: &str) {
    let results = RESULTS.lock().expect("results lock");
    let mut out = String::from("{\n  \"benchmarks\": {\n");
    for (i, (name, median, bytes)) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let us = median * 1e6;
        if *bytes > 0 {
            let mibps = *bytes as f64 / median / (1024.0 * 1024.0);
            out.push_str(&format!(
                "    \"{name}\": {{\"median_us\": {us:.3}, \"mib_per_s\": {mibps:.1}}}{sep}\n"
            ));
        } else {
            out.push_str(&format!(
                "    \"{name}\": {{\"median_us\": {us:.3}}}{sep}\n"
            ));
        }
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out).expect("write json");
    eprintln!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        // Short batches: noisy numbers, but enough to catch a kernel
        // that stopped compiling or regressed by an order of magnitude.
        BATCH.set(Duration::from_millis(5)).expect("set once");
        SAMPLES.set(3).expect("set once");
    }
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    println!(
        "gf kernel: {} (LRS_GF_KERNEL to force)   sha kernel: {} (LRS_SHA_KERNEL to force)",
        Kernel::active().name(),
        ShaKernel::active().name(),
    );
    println!(
        "{:<32} {:>17} {:>16}",
        "benchmark", "median latency", "throughput"
    );
    bench_sha256();
    bench_puzzle();
    bench_cluster_mac();
    bench_gf_kernels();
    bench_matrix();
    bench_reed_solomon();
    bench_merkle();
    bench_signature();
    bench_scheduler();
    bench_event_queue();
    bench_topology();
    bench_wire();
    if let Some(path) = json_path {
        write_json(&path);
    }
}
