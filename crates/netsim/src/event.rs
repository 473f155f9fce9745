//! The discrete-event queue.
//!
//! A binary heap keyed by `(time, sequence)`; the sequence number breaks
//! ties in insertion order, making runs fully deterministic.

use lrs_host::node::{NodeId, PacketKind, TimerId};
use lrs_host::time::SimTime;
use std::cmp::Reverse;
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

/// A deterministic future-event list.
///
/// The heap orders 24-byte `(at, seq, slot)` keys; the events themselves
/// sit still in a slab (`slot` indexes it) whose vacated slots are
/// reused, so a sift moves keys, never payloads. `seq` is unique, so the
/// order is exactly `(at, seq)` and `slot` never breaks a tie.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slab: Vec<Option<Event>>,
    free: Vec<u32>,
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let event = self.slab[slot as usize].take();
        self.free.push(slot);
        Some((at, event.expect("a queued key's slot holds its event")))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Iterates over pending events in arbitrary (heap) order, without
    /// draining them. Used for diagnostic dumps.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &Event)> {
        self.heap.iter().map(|Reverse((at, _, slot))| {
            let event = self.slab[*slot as usize].as_ref();
            (*at, event.expect("a queued key's slot holds its event"))
        })
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

    /// Drives the queue and a reference `BinaryHeap<Reverse<(at, seq)>>`
    /// with one random push/pop interleaving: four timestamps ahead of
    /// the clock (so ties are the rule), alternating fill and drain
    /// phases that empty the slab and refill it through the free list.
    /// Each event carries its sequence number as its timer generation,
    /// so a pop names the key it came from.
    fn differential(seed: u64, ops: usize) {
        let mut rng = lrs_rng::DetRng::seed_from_u64(seed);
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let generation = |event: &Event| match event {
            Event::Timer { generation, .. } => *generation,
            _ => unreachable!("only timers are pushed"),
        };
        for op in 0..ops {
            let filling = (op / 256) % 2 == 0;
            if rng.gen_bool(if filling { 0.8 } else { 0.2 }) {
                let at = SimTime(now + rng.gen_range(0u64..4) * 10);
                q.push(at, timer(rng.gen_range(0u32..8), seq));
                model.push(Reverse((at, seq)));
                seq += 1;
            } else {
                let got = q.pop().map(|(at, e)| (at, generation(&e)));
                let want = model.pop().map(|Reverse(key)| key);
                assert_eq!(got, want, "seed {seed} op {op}");
                if let Some((at, _)) = want {
                    now = at.0;
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
            assert_eq!(q.peek_time(), model.peek().map(|Reverse((at, _))| *at));
            if op % 8 == 0 {
                let mut pending: Vec<_> = q.iter().map(|(at, e)| (at, generation(e))).collect();
                let mut expected: Vec<_> = model.iter().map(|Reverse(key)| *key).collect();
                pending.sort_unstable();
                expected.sort_unstable();
                assert_eq!(pending, expected, "seed {seed} op {op}");
            }
        }
        assert!(q.slab.len() * 2 < seq as usize, "slots were reused");
    }

    #[test]
    fn matches_a_reference_heap_under_ties_and_slot_reuse() {
        for seed in 0..8 {
            differential(seed, 2_000);
        }
    }

    /// The long form, run by CI in release (`-- --ignored`).
    #[test]
    #[ignore]
    fn matches_a_reference_heap_long() {
        for seed in 0..64 {
            differential(0x6576_0000 + seed, 50_000);
        }
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
