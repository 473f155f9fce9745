//! The greedy round-robin TX scheduler (paper §IV-D-3, Table I).
//!
//! A node in the TX state maintains a *tracking table* with one entry per
//! requesting neighbor: the neighbor's id, the bit vector of packets it
//! still wants, and its *distance* `d_v = q + k' − n` (the number of
//! additional packets it needs, given that any `k'` of the `n` encoded
//! packets decode the page). The scheduler repeatedly transmits the
//! packet wanted by the most neighbors; on ties it takes the first
//! candidate cyclically to the right of the last transmission. After
//! each transmission the chosen column is cleared, distances of the
//! nodes that wanted it are decremented, and sated entries (`d = 0`) are
//! dropped — those neighbors can decode even though other requested bits
//! remain set. Transmission stops when the table is empty, which is why
//! LR-Seluge serves diverse loss patterns with far fewer packets than
//! the union rule of Deluge/Seluge.

use lrs_deluge::policy::TxPolicy;
use lrs_deluge::wire::BitVec;
use lrs_host::node::NodeId;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
struct Entry {
    node: NodeId,
    bits: BitVec,
    distance: u16,
}

#[derive(Clone, Debug)]
struct Table {
    entries: Vec<Entry>,
    last_sent: Option<usize>,
    n: usize,
    /// Reused popularity counters — `pick()` runs once per transmitted
    /// packet, so the per-call `Vec` allocation is worth avoiding.
    pop_scratch: Vec<usize>,
}

impl Table {
    fn popularity(&mut self) -> &[usize] {
        self.pop_scratch.clear();
        self.pop_scratch.resize(self.n, 0);
        for e in &self.entries {
            for j in e.bits.iter_ones() {
                self.pop_scratch[j] += 1;
            }
        }
        &self.pop_scratch
    }

    /// Picks the next packet index per the paper's rule.
    fn pick(&mut self) -> Option<usize> {
        let n = self.n;
        let start = match self.last_sent {
            Some(x) => (x + 1) % n,
            None => 0,
        };
        let pop = self.popularity();
        let max = *pop.iter().max()?;
        if max == 0 {
            return None;
        }
        (0..n).map(|off| (start + off) % n).find(|&j| pop[j] == max)
    }

    /// Applies the post-transmission update for packet `x`.
    fn sent(&mut self, x: usize) {
        for e in &mut self.entries {
            if e.bits.get(x) {
                e.bits.set(x, false);
                e.distance = e.distance.saturating_sub(1);
            }
        }
        self.entries.retain(|e| e.distance > 0 && !e.bits.is_zero());
        self.last_sent = Some(x);
    }
}

/// LR-Seluge's TX policy: a tracking table per item.
#[derive(Clone, Debug, Default)]
pub struct GreedyRoundRobinPolicy {
    tables: BTreeMap<u16, Table>,
}

impl GreedyRoundRobinPolicy {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of neighbors currently tracked for `item` (diagnostics).
    pub fn tracked(&self, item: u16) -> usize {
        self.tables.get(&item).map_or(0, |t| t.entries.len())
    }
}

impl TxPolicy for GreedyRoundRobinPolicy {
    fn on_snack(&mut self, from: NodeId, item: u16, bits: &BitVec, needed: u16) {
        if bits.is_zero() || needed == 0 {
            return;
        }
        let table = self.tables.entry(item).or_insert_with(|| Table {
            entries: Vec::new(),
            last_sent: None,
            n: bits.len(),
            pop_scratch: Vec::new(),
        });
        if let Some(entry) = table.entries.iter_mut().find(|e| e.node == from) {
            // Refresh to the neighbor's latest view (§IV-D-3: "node u
            // updates the entry according to the SNACK request").
            entry.bits = bits.clone();
            entry.distance = needed;
        } else {
            table.entries.push(Entry {
                node: from,
                bits: bits.clone(),
                distance: needed,
            });
        }
    }

    fn next(&mut self) -> Option<(u16, u16)> {
        loop {
            let (&item, table) = self.tables.iter_mut().next()?;
            match table.pick() {
                Some(x) => {
                    table.sent(x);
                    if table.entries.is_empty() {
                        self.tables.remove(&item);
                    }
                    return Some((item, x as u16));
                }
                None => {
                    self.tables.remove(&item);
                }
            }
        }
    }

    fn on_overheard_data(&mut self, item: u16, index: u16) {
        if let Some(table) = self.tables.get_mut(&item) {
            if (index as usize) < table.n {
                // Clear the column (no point duplicating a packet already
                // on the air) but do NOT decrement distances: unlike our
                // own transmissions, another sender's packet may be
                // inaudible to our requesters (multi-hop), so treating it
                // as satisfying them would retire entries that were never
                // served. Requesters that did hear it shrink their bits in
                // the next SNACK refresh anyway.
                for e in &mut table.entries {
                    if e.bits.get(index as usize) {
                        e.bits.set(index as usize, false);
                    }
                }
                table.entries.retain(|e| !e.bits.is_zero());
                if table.entries.is_empty() {
                    self.tables.remove(&item);
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.tables.values().all(|t| t.entries.is_empty())
    }

    fn min_pending_item(&self) -> Option<u16> {
        self.tables
            .iter()
            .find(|(_, t)| !t.entries.is_empty())
            .map(|(&item, _)| item)
    }

    fn clear(&mut self) {
        self.tables.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(len: usize, ones: &[usize]) -> BitVec {
        let mut b = BitVec::zeros(len);
        for &i in ones {
            b.set(i, true);
        }
        b
    }

    /// Distance for an MDS code: d = q + k' − n.
    fn dist(q: usize, k: usize, n: usize) -> u16 {
        (q + k - n) as u16
    }

    #[test]
    fn paper_table_i_walkthrough() {
        // §IV-D-3's worked example (k = k' = 3, n = 4): three neighbors
        // all want P2 (0-based index 1), which is therefore sent first;
        // the neighbor at distance 1 is then removed even though it has
        // other bits set; subsequent picks walk cyclically to the right
        // among the most-popular remaining columns until the table
        // empties.
        let k = 3;
        let n = 4;
        let mut p = GreedyRoundRobinPolicy::new();
        // v1 wants {P1, P2} → q = 2, d = 1.
        p.on_snack(NodeId(1), 0, &bits(n, &[0, 1]), dist(2, k, n));
        // v2 wants {P2, P3, P4} → q = 3, d = 2.
        p.on_snack(NodeId(2), 0, &bits(n, &[1, 2, 3]), dist(3, k, n));
        // v3 wants {P1, P2, P4} → q = 3, d = 2.
        p.on_snack(NodeId(3), 0, &bits(n, &[0, 1, 3]), dist(3, k, n));
        assert_eq!(p.tracked(0), 3);

        // P2 (index 1) has popularity 3: sent first.
        assert_eq!(p.next(), Some((0, 1)));
        // v1's distance hit 0: removed despite wanting P1 too.
        assert_eq!(p.tracked(0), 2);
        // Remaining: v2 wants {P3, P4} at distance 1, v3 wants {P1, P4}
        // at distance 1. P4 has popularity 2 — sent next; both reach
        // distance 0 and the table empties after only 2 transmissions
        // (the union rule would have sent all 4 requested packets).
        assert_eq!(p.next(), Some((0, 3)));
        assert_eq!(p.next(), None);
        assert!(p.is_empty());
    }

    #[test]
    fn identical_all_ones_requests_cost_exactly_k_prime() {
        // z neighbors that lost everything need only k' transmissions in
        // total — the headline saving over the union rule's n.
        let (k, n, z) = (8usize, 12usize, 5u32);
        let mut p = GreedyRoundRobinPolicy::new();
        for v in 0..z {
            p.on_snack(
                NodeId(v),
                3,
                &bits(n, &(0..n).collect::<Vec<_>>()),
                k as u16,
            );
        }
        let sent: Vec<(u16, u16)> = std::iter::from_fn(|| p.next()).collect();
        assert_eq!(sent.len(), k);
        assert!(sent.iter().all(|&(item, _)| item == 3));
        // All indices distinct.
        let mut idxs: Vec<u16> = sent.iter().map(|&(_, j)| j).collect();
        idxs.sort_unstable();
        idxs.dedup();
        assert_eq!(idxs.len(), k);
    }

    #[test]
    fn refresh_replaces_entry() {
        let mut p = GreedyRoundRobinPolicy::new();
        p.on_snack(NodeId(1), 0, &bits(4, &[0, 1, 2, 3]), 3);
        // The neighbor re-SNACKs with a smaller want set.
        p.on_snack(NodeId(1), 0, &bits(4, &[2]), 1);
        assert_eq!(p.next(), Some((0, 2)));
        assert_eq!(p.next(), None);
    }

    #[test]
    fn zero_requests_ignored() {
        let mut p = GreedyRoundRobinPolicy::new();
        p.on_snack(NodeId(1), 0, &bits(4, &[]), 0);
        p.on_snack(NodeId(2), 0, &bits(4, &[1]), 0);
        assert!(p.is_empty());
        assert_eq!(p.next(), None);
    }

    #[test]
    fn lowest_item_served_first() {
        let mut p = GreedyRoundRobinPolicy::new();
        p.on_snack(NodeId(1), 7, &bits(4, &[0]), 1);
        p.on_snack(NodeId(2), 2, &bits(4, &[3]), 1);
        assert_eq!(p.min_pending_item(), Some(2));
        assert_eq!(p.next(), Some((2, 3)));
        assert_eq!(p.next(), Some((7, 0)));
    }

    #[test]
    fn round_robin_tie_break_moves_right() {
        let mut p = GreedyRoundRobinPolicy::new();
        // Two neighbors with disjoint singletons plus a shared packet.
        p.on_snack(NodeId(1), 0, &bits(6, &[0, 2, 4]), 3);
        p.on_snack(NodeId(2), 0, &bits(6, &[0, 3, 5]), 3);
        // Popularity: P0 = 2 (max) → send 0.
        assert_eq!(p.next(), Some((0, 0)));
        // Ties at 1 everywhere; first to the right of 0 is 2.
        assert_eq!(p.next(), Some((0, 2)));
        // Next to the right of 2 is 3.
        assert_eq!(p.next(), Some((0, 3)));
    }

    #[test]
    fn clear_drops_everything() {
        let mut p = GreedyRoundRobinPolicy::new();
        p.on_snack(NodeId(1), 0, &bits(4, &[0, 1]), 2);
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.next(), None);
    }

    /// The scheduler always satisfies every neighbor (drives every
    /// distance to zero) and never transmits more than the union rule
    /// would.
    #[test]
    fn satisfies_all_with_at_most_union_cost() {
        let mut rng = lrs_rng::DetRng::seed_from_u64(0x7363_6865);
        for _ in 0..128 {
            let n = rng.gen_range(4usize..16);
            let spare = rng.gen_range(1usize..4);
            let z = rng.gen_range(1usize..6);
            let k = n - spare.min(n - 1);
            let mut p = GreedyRoundRobinPolicy::new();
            let mut union = BitVec::zeros(n);
            let mut needs: Vec<(usize, usize)> = Vec::new(); // (q, d)
            for v in 0..z {
                // Random non-empty want set with q >= n - k + 1 so that
                // d = q + k - n >= 1 (a neighbor that can already decode
                // would not SNACK).
                let min_q = n - k + 1;
                let q = rng.gen_range(min_q..=n);
                let mut idxs: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut idxs);
                let want = &idxs[..q];
                let b = bits(n, want);
                union.union_with(&b);
                let d = q + k - n;
                needs.push((q, d));
                p.on_snack(NodeId(v as u32), 0, &b, d as u16);
            }
            let sent: Vec<u16> = std::iter::from_fn(|| p.next()).map(|(_, j)| j).collect();
            // Never more than the union rule.
            assert!(
                sent.len() <= union.count_ones(),
                "greedy sent {} > union {}",
                sent.len(),
                union.count_ones()
            );
            // Table fully drained = every neighbor reached distance 0
            // (or ran out of useful bits, impossible since d <= q).
            assert!(p.is_empty());
            // Lower bound: at least max distance transmissions needed.
            let max_d = needs.iter().map(|&(_, d)| d).max().unwrap();
            assert!(sent.len() >= max_d);
        }
    }
}
