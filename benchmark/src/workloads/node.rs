//! The two network-free workloads: `node_ingest` and `node_flood`.
//!
//! A base-station `LrScheme` serves packets through `packet_payload`; a
//! receiver `LrScheme` ingests them through `handle_packet` under a
//! seeded erasure pattern and then becomes the sender of the next hop,
//! which forces it to re-encode every page it decoded. This is the
//! paper's Section V-B per-node computation path (hash verify, RS
//! decode, relay re-encode) with netsim and the Deluge engine removed.
//! `node_flood` precedes every genuine packet with forged copies that
//! must all be refused, exercising the reject path beside the accept
//! path.

use super::{image, Body, BodyOut, Kit, LrKit, Shapes, KEY_MATERIAL};
use crate::wrap::{CountingSink, Layer, Mode};
use lr_seluge::LrSelugeParams;
use lrs_deluge::engine::{PacketDisposition, Scheme};
use lrs_deluge::wire::Message;
use lrs_netsim::medium::MediumConfig;
use lrs_netsim::node::NodeId;
use lrs_rng::DetRng;

/// Relay hops per chain iteration.
const HOPS: usize = 4;
/// Share of each item's packets the erasure pattern removes.
const ERASURE: f64 = 0.3;
/// Forged copies preceding each genuine data / hash-page packet.
const FORGED_PER_PACKET: usize = 8;
/// Forged bodies preceding each genuine signature packet.
const FORGED_PER_SIGNATURE: usize = 4;
/// Chain iterations per body. Fixed, so a body is the same work on
/// every seed; sized for a body of a few seconds on the reference box.
const INGEST_ITERATIONS: usize = 360;
/// Flood iterations per body (each does ~9x the hashing of an ingest
/// iteration).
const FLOOD_ITERATIONS: usize = 110;

/// A prepared relay chain.
pub struct NodeChain {
    kit: LrKit,
    flood: bool,
    /// `erased[hop][item][index]`: the receiver of `hop` never hears
    /// that packet.
    erased: Vec<Vec<Vec<bool>>>,
    forge_seed: u64,
    /// Wire bytes a `Message::Data` adds around its payload.
    data_header: usize,
}

impl NodeChain {
    /// Generates a 64 KiB image, preprocesses it, and draws the erasure
    /// pattern.
    pub fn prepare<M: Mode>(seed: u64, flood: bool) -> Self {
        let params = LrSelugeParams {
            image_len: 64 * 1024,
            ..LrSelugeParams::default()
        };
        let kit = LrKit::build::<M>(image(params.image_len), params, KEY_MATERIAL);
        let mut rng = DetRng::seed_from_u64(super::sim::derive_seed(seed, 3));
        let erased = (0..HOPS)
            .map(|_| {
                (0..params.num_items())
                    .map(|item| erasure_pattern(&mut rng, &params, item))
                    .collect()
            })
            .collect();
        let data_header = Message::Data {
            version: params.version,
            item: 2,
            index: 0,
            payload: Vec::new(),
        }
        .to_bytes()
        .len();
        NodeChain {
            kit,
            flood,
            erased,
            forge_seed: super::sim::derive_seed(seed, 4),
            data_header,
        }
    }

    fn iterations(&self) -> usize {
        if self.flood {
            FLOOD_ITERATIONS
        } else {
            INGEST_ITERATIONS
        }
    }
}

/// Erases each packet of `item` with probability [`ERASURE`], then
/// restores random ones until the reception threshold survives.
fn erasure_pattern(rng: &mut DetRng, params: &LrSelugeParams, item: u16) -> Vec<bool> {
    let (packets, needed) = match item {
        0 => (1, 1),
        1 => (params.n0 as usize, params.k0_prime() as usize),
        _ => (params.n as usize, params.k_prime() as usize),
    };
    let mut erased: Vec<bool> = (0..packets)
        .map(|_| packets > 1 && rng.gen_bool(ERASURE))
        .collect();
    while erased.iter().filter(|e| !**e).count() < needed {
        let i = rng.gen_range(0..packets);
        erased[i] = false;
    }
    erased
}

impl Body for NodeChain {
    fn body<M: Mode>(&self, _sink: Option<&CountingSink>) -> BodyOut {
        let mut out = BodyOut::default();
        let mut rng = DetRng::seed_from_u64(self.forge_seed);
        let medium = MediumConfig::default();
        let image_kib = self.kit.image_len() as f64 / 1024.0;
        let mut forged = Vec::new();
        for _ in 0..self.iterations() {
            let mut sender = M::scheme(self.kit.scheme(NodeId(0), None), Layer::Core);
            for (hop, erased) in self.erased.iter().enumerate() {
                let mut receiver =
                    M::scheme(self.kit.scheme(NodeId(hop as u32 + 1), None), Layer::Core);
                let mut clean = true;
                for item in 0..receiver.num_items() {
                    for index in 0..sender.item_packets(item) {
                        if receiver.complete_items() > item {
                            break;
                        }
                        if erased[item as usize][index as usize] {
                            continue;
                        }
                        let Some(payload) = sender.packet_payload(item, index) else {
                            clean = false;
                            break;
                        };
                        let wire_len = payload.len() + self.data_header;
                        if self.flood {
                            let copies = if item == 0 {
                                FORGED_PER_SIGNATURE
                            } else {
                                FORGED_PER_PACKET
                            };
                            forged.clear();
                            forged.extend_from_slice(&payload);
                            for _ in 0..copies {
                                let at = rng.gen_range(0..forged.len());
                                let flip = 1u8 << rng.gen_range(0..8u32);
                                forged[at] ^= flip;
                                let disposition = receiver.handle_packet(item, index, &forged);
                                forged[at] ^= flip;
                                out.attempted += 1;
                                match disposition {
                                    PacketDisposition::Accepted => out.failed += 1,
                                    PacketDisposition::Rejected => out.totals.auth_rejects += 1,
                                    PacketDisposition::Duplicate => out.totals.duplicates += 1,
                                }
                                fed(&mut out, &medium, wire_len);
                            }
                        }
                        clean &= receiver.handle_packet(item, index, &payload)
                            == PacketDisposition::Accepted;
                        fed(&mut out, &medium, wire_len);
                    }
                }
                out.attempted += 1;
                let scheme = M::scheme_ref::<lr_seluge::LrScheme>(&receiver);
                out.totals.add_cost(scheme.cost());
                if clean && self.kit.committed(scheme) {
                    out.kib += image_kib;
                } else {
                    out.failed += 1;
                }
                sender = receiver;
            }
            out.totals.runs += 1;
        }
        out
    }

    fn shapes(&self) -> Shapes {
        let p = self.kit.params;
        Shapes {
            code: Some((p.k as usize, p.n as usize)),
            payload_len: p.payload_len,
            merkle_depth: p.merkle_depth(),
            puzzle_strength: p.puzzle_strength,
            network: None,
        }
    }
}

/// Accounts one packet handed to a receiver: bytes, count, and the
/// airtime it would occupy on the default radio.
fn fed(out: &mut BodyOut, medium: &MediumConfig, wire_len: usize) {
    out.totals.data_pkts += 1;
    out.totals.tx_bytes += wire_len as u64;
    out.totals.latency_s += medium.airtime(wire_len).as_secs_f64();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erasure_pattern_always_leaves_the_threshold() {
        let params = LrSelugeParams::default();
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..200 {
            let page = erasure_pattern(&mut rng, &params, 2);
            assert_eq!(page.len(), 48);
            assert!(page.iter().filter(|e| !**e).count() >= 32);
            let hash_page = erasure_pattern(&mut rng, &params, 1);
            assert!(hash_page.iter().filter(|e| !**e).count() >= 8);
            assert_eq!(erasure_pattern(&mut rng, &params, 0), vec![false]);
        }
    }
}
