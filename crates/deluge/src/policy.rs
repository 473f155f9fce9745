//! Transmit-scheduling policies for nodes in the TX state.
//!
//! Deluge and Seluge transmit the union of all requested bit vectors in
//! index order ([`UnionPolicy`]); LR-Seluge replaces this with the greedy
//! round-robin scheduler over a tracking table (implemented in the
//! `lr-seluge` crate against the same [`TxPolicy`] trait).

use crate::wire::BitVec;
use lrs_host::node::NodeId;
use std::collections::BTreeMap;

/// Decides which requested packet a TX-state node transmits next.
pub trait TxPolicy {
    /// Incorporates a SNACK from `from` asking for the set bits of
    /// `item`. `needed` is the number of additional packets `from`
    /// requires to complete the item (the tracking-table *distance*
    /// `d_v = q + k' − n` of the paper; union-based policies ignore it).
    fn on_snack(&mut self, from: NodeId, item: u16, bits: &BitVec, needed: u16);

    /// The next `(item, packet index)` to transmit, updating internal
    /// state as if the packet were sent. `None` when nothing is pending.
    fn next(&mut self) -> Option<(u16, u16)>;

    /// Another node was overheard transmitting packet `(item, index)`:
    /// requesters heard it too, so account for it as if we had sent it
    /// (this is the suppression rule — a node suppresses its own data
    /// packet when overhearing data for the same or a smaller index).
    fn on_overheard_data(&mut self, item: u16, index: u16);

    /// Whether no requests are pending.
    fn is_empty(&self) -> bool;

    /// The smallest item index with pending requests, for the data
    /// suppression rule (defer when overhearing data for an earlier
    /// item than anything we are serving).
    fn min_pending_item(&self) -> Option<u16>;

    /// Drops all pending requests.
    fn clear(&mut self);
}

/// Deluge/Seluge behaviour: transmit every requested packet once, lowest
/// item first, in packet-index order. Packets lost in transit are simply
/// re-requested by a later SNACK.
#[derive(Clone, Debug, Default)]
pub struct UnionPolicy {
    /// Pending request bits per item (BTreeMap keeps item order).
    pending: BTreeMap<u16, BitVec>,
}

impl UnionPolicy {
    /// An empty policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TxPolicy for UnionPolicy {
    fn on_snack(&mut self, _from: NodeId, item: u16, bits: &BitVec, _needed: u16) {
        self.pending
            .entry(item)
            .and_modify(|b| b.union_with(bits))
            .or_insert_with(|| bits.clone());
    }

    fn next(&mut self) -> Option<(u16, u16)> {
        let (&item, bits) = self.pending.iter_mut().find(|(_, b)| !b.is_zero())?;
        let idx = bits.iter_ones().next().expect("non-zero checked");
        bits.set(idx, false);
        if bits.is_zero() {
            self.pending.remove(&item);
        }
        Some((item, idx as u16))
    }

    fn on_overheard_data(&mut self, item: u16, index: u16) {
        if let Some(bits) = self.pending.get_mut(&item) {
            if (index as usize) < bits.len() {
                bits.set(index as usize, false);
                if bits.is_zero() {
                    self.pending.remove(&item);
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.pending.values().all(|b| b.is_zero())
    }

    fn min_pending_item(&self) -> Option<u16> {
        self.pending
            .iter()
            .find(|(_, b)| !b.is_zero())
            .map(|(&item, _)| item)
    }

    fn clear(&mut self) {
        self.pending.clear();
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

    #[test]
    fn union_merges_requests() {
        let mut p = UnionPolicy::new();
        p.on_snack(NodeId(1), 0, &bits(4, &[0, 2]), 2);
        p.on_snack(NodeId(2), 0, &bits(4, &[2, 3]), 2);
        let sent: Vec<(u16, u16)> = std::iter::from_fn(|| p.next()).collect();
        assert_eq!(sent, vec![(0, 0), (0, 2), (0, 3)]);
        assert!(p.is_empty());
    }

    #[test]
    fn lowest_item_first() {
        let mut p = UnionPolicy::new();
        p.on_snack(NodeId(1), 5, &bits(4, &[1]), 1);
        p.on_snack(NodeId(2), 2, &bits(4, &[0]), 1);
        assert_eq!(p.next(), Some((2, 0)));
        assert_eq!(p.next(), Some((5, 1)));
        assert_eq!(p.next(), None);
    }

    #[test]
    fn clear_empties() {
        let mut p = UnionPolicy::new();
        p.on_snack(NodeId(1), 0, &bits(4, &[0, 1, 2, 3]), 4);
        assert!(!p.is_empty());
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.next(), None);
    }

    #[test]
    fn re_request_after_send_is_honored() {
        // A packet lost in the air gets re-requested and re-sent.
        let mut p = UnionPolicy::new();
        p.on_snack(NodeId(1), 0, &bits(4, &[1]), 1);
        assert_eq!(p.next(), Some((0, 1)));
        assert_eq!(p.next(), None);
        p.on_snack(NodeId(1), 0, &bits(4, &[1]), 1);
        assert_eq!(p.next(), Some((0, 1)));
    }
}
