//! The discrete-event queue.
//!
//! A binary heap keyed by `(time, sequence)`; the sequence number breaks
//! ties in insertion order, making runs fully deterministic.

use lrs_host::node::{NodeId, PacketKind, TimerId};
use lrs_host::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// An event scheduled for execution.
#[derive(Debug, Clone)]
pub enum Event {
    /// A broadcast finishing reception at every neighbour of `from`: the
    /// engine attempts one delivery per outgoing link, in link order.
    /// One entry per transmission keeps the heap a neighbourhood's size
    /// smaller than one entry per receiver would.
    Broadcast {
        /// Sender.
        from: NodeId,
        /// Packet payload.
        data: Vec<u8>,
        /// Metric classification.
        kind: PacketKind,
        /// Transmission id, for collision lookup.
        tx_id: u64,
    },
    /// A packet finishing reception at the single receiver `to`.
    Deliver {
        /// Receiver.
        to: NodeId,
        /// Original sender.
        from: NodeId,
        /// Packet payload (shared among all receivers).
        data: Arc<Vec<u8>>,
        /// Metric classification.
        kind: PacketKind,
        /// Transmission id, for collision lookup.
        tx_id: u64,
    },
    /// A protocol timer firing (only valid if `generation` still matches).
    Timer {
        /// Owner of the timer.
        node: NodeId,
        /// Protocol timer id.
        timer: TimerId,
        /// Arm generation, used to invalidate superseded arms.
        generation: u64,
    },
}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse(s)| (s.at, s.event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Iterates over pending events in arbitrary (heap) order, without
    /// draining them. Used for diagnostic dumps.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &Event)> {
        self.heap.iter().map(|Reverse(s)| (s.at, &s.event))
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, gen: u64) -> Event {
        Event::Timer {
            node: NodeId(node),
            timer: TimerId(0),
            generation: gen,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), timer(3, 0));
        q.push(SimTime(10), timer(1, 0));
        q.push(SimTime(20), timer(2, 0));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for gen in 0..5 {
            q.push(SimTime(7), timer(0, gen));
        }
        let gens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { generation, .. } => generation,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(gens, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(5), timer(0, 0));
        q.push(SimTime(3), timer(0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
    }
}
