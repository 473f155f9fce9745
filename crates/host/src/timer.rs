//! The per-node timer table both drivers share.
//!
//! A protocol re-arms its timers freely, and only the latest arm of a
//! [`TimerId`] ever fires. The table keeps one slot per id a node has
//! touched: an arm stamp and the live deadline. Every arm and every
//! cancel bumps the stamp, so an expiration carrying an older stamp —
//! superseded by a later arm or a cancel — is stale.
//!
//! The simulator queues each arm as an event stamped with
//! [`TimerWheel::arm`]'s return and asks [`TimerWheel::fire`] whether a
//! popped event is still the live arm. A real-time host asks the table
//! itself for the earliest due timer ([`TimerWheel::pop_due`]).
//!
//! A node touches a handful of ids (the engine 0-4, an attacker 9), so
//! the slots are a short vector searched linearly, and no id value can
//! make it hold more than one slot per id.

use crate::node::TimerId;
use crate::time::SimTime;

/// One timer's arm stamp and live deadline.
#[derive(Clone, Copy, Debug)]
struct Slot {
    timer: TimerId,
    stamp: u64,
    due: Option<SimTime>,
}

/// The timers of one node.
#[derive(Clone, Debug, Default)]
pub struct TimerWheel {
    slots: Vec<Slot>,
}

impl TimerWheel {
    /// An empty table.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    fn slot(&mut self, timer: TimerId) -> &mut Slot {
        let i = match self.slots.iter().position(|s| s.timer == timer) {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    timer,
                    stamp: 0,
                    due: None,
                });
                self.slots.len() - 1
            }
        };
        &mut self.slots[i]
    }

    /// Arms (or re-arms) `timer` to fire at `deadline`, superseding any
    /// earlier arm; returns the stamp of this arm.
    pub fn arm(&mut self, timer: TimerId, deadline: SimTime) -> u64 {
        let slot = self.slot(timer);
        slot.stamp += 1;
        slot.due = Some(deadline);
        slot.stamp
    }

    /// Cancels `timer` (no-op if not armed).
    pub fn cancel(&mut self, timer: TimerId) {
        let slot = self.slot(timer);
        slot.stamp += 1;
        slot.due = None;
    }

    /// Cancels every timer: a reboot, where timers die with the RAM.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.stamp += 1;
            slot.due = None;
        }
    }

    /// Whether `stamp` is `timer`'s live arm; if it is, the arm is
    /// consumed.
    pub fn fire(&mut self, timer: TimerId, stamp: u64) -> bool {
        match self.slots.iter_mut().find(|s| s.timer == timer) {
            Some(slot) if slot.stamp == stamp && slot.due.is_some() => {
                slot.due = None;
                true
            }
            _ => false,
        }
    }

    /// The slot of the earliest live arm, ties broken by timer id.
    fn earliest(&self) -> Option<usize> {
        let slots = self.slots.iter().enumerate();
        let armed = slots.filter_map(|(i, s)| s.due.map(|due| (due, s.timer, i)));
        armed.min().map(|(.., i)| i)
    }

    /// The earliest live deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.slots.iter().filter_map(|s| s.due).min()
    }

    /// Consumes and returns the earliest live arm with `deadline <= now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<TimerId> {
        let i = self.earliest()?;
        let slot = &mut self.slots[i];
        if slot.due? > now {
            return None;
        }
        slot.due = None;
        Some(slot.timer)
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.due.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_rng::DetRng;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    /// The wheel real-time hosts ran before the table was shared: a
    /// generation per id and a heap of stamped expirations, stale ones
    /// pruned when they reach the top.
    #[derive(Default)]
    struct Reference {
        gens: HashMap<u32, u64>,
        heap: BinaryHeap<Reverse<(SimTime, u32, u64)>>,
    }

    impl Reference {
        fn arm(&mut self, timer: TimerId, deadline: SimTime) {
            let gen = self.gens.entry(timer.0).or_insert(0);
            *gen += 1;
            self.heap.push(Reverse((deadline, timer.0, *gen)));
        }

        fn cancel(&mut self, timer: TimerId) {
            *self.gens.entry(timer.0).or_insert(0) += 1;
        }

        fn clear(&mut self) {
            for gen in self.gens.values_mut() {
                *gen += 1;
            }
        }

        fn live(&self, timer: u32, gen: u64) -> bool {
            self.gens.get(&timer) == Some(&gen)
        }

        fn next_deadline(&mut self) -> Option<SimTime> {
            while let Some(Reverse((deadline, timer, gen))) = self.heap.peek().copied() {
                if self.live(timer, gen) {
                    return Some(deadline);
                }
                self.heap.pop();
            }
            None
        }

        fn pop_due(&mut self, now: SimTime) -> Option<TimerId> {
            let deadline = self.next_deadline()?;
            if deadline > now {
                return None;
            }
            let Reverse((_, timer, _)) = self.heap.pop().expect("peeked");
            Some(TimerId(timer))
        }
    }

    const IDS: [u32; 8] = [0, 1, 2, 3, 4, 5, 9, u32::MAX];

    /// Random arm/cancel/clear/fire/pop/peek sequences against the
    /// reference wheel, with `fire` checked against the rule "the stamp
    /// of the last arm, with no cancel, clear or fire since".
    #[test]
    fn matches_the_reference_wheel() {
        for seed in 0..8 {
            let mut rng = DetRng::seed_from_u64(0x7469_6d65 ^ seed);
            let mut wheel = TimerWheel::new();
            let mut reference = Reference::default();
            // Per id: every stamp `arm` returned, and the live one.
            let mut stamps: HashMap<u32, Vec<u64>> = HashMap::new();
            let mut live: HashMap<u32, u64> = HashMap::new();
            for op in 0..2_000 {
                let timer = TimerId(IDS[rng.gen_range(0..IDS.len())]);
                // Few distinct deadlines, so ties are frequent.
                let at = SimTime(rng.gen_range(0..6u64) * 10);
                match rng.gen_range(0..12u32) {
                    0..=3 => {
                        let stamp = wheel.arm(timer, at);
                        reference.arm(timer, at);
                        stamps.entry(timer.0).or_default().push(stamp);
                        live.insert(timer.0, stamp);
                    }
                    4 => {
                        wheel.cancel(timer);
                        reference.cancel(timer);
                        live.remove(&timer.0);
                    }
                    5 => {
                        wheel.clear();
                        reference.clear();
                        live.clear();
                    }
                    6 | 7 => {
                        let seen = stamps.get(&timer.0).map_or(&[][..], Vec::as_slice);
                        let stamp = match seen.len() {
                            0 => rng.gen_range(0..3u64),
                            n => seen[rng.gen_range(n.saturating_sub(2)..n)],
                        };
                        let expect = live.get(&timer.0) == Some(&stamp);
                        assert_eq!(wheel.fire(timer, stamp), expect, "seed {seed} op {op}");
                        if expect {
                            reference.cancel(timer);
                            live.remove(&timer.0);
                        }
                    }
                    8..=10 => {
                        let popped = wheel.pop_due(at);
                        assert_eq!(popped, reference.pop_due(at), "seed {seed} op {op}");
                        if let Some(t) = popped {
                            live.remove(&t.0);
                        }
                    }
                    _ => {
                        let next = wheel.next_deadline();
                        assert_eq!(next, reference.next_deadline(), "seed {seed} op {op}");
                        assert_eq!(wheel.is_empty(), next.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn one_slot_per_id_whatever_its_value() {
        let mut w = TimerWheel::new();
        for at in 0..100 {
            w.arm(TimerId(u32::MAX), SimTime(at));
        }
        w.cancel(TimerId(u32::MAX));
        assert_eq!(w.slots.len(), 1);
    }

    #[test]
    fn latest_arm_wins() {
        let mut w = TimerWheel::new();
        let first = w.arm(TimerId(3), SimTime(100));
        let second = w.arm(TimerId(3), SimTime(500));
        // The first arm is stale: nothing is due at its deadline.
        assert_eq!(w.pop_due(SimTime(100)), None);
        assert!(!w.fire(TimerId(3), first));
        assert!(w.fire(TimerId(3), second));
        assert!(!w.fire(TimerId(3), second), "an arm fires once");
        assert_eq!(w.pop_due(SimTime(10_000)), None);
    }

    #[test]
    fn clear_cancels_every_timer() {
        let mut w = TimerWheel::new();
        let stamp = w.arm(TimerId(0), SimTime(10));
        w.arm(TimerId(9), SimTime(20));
        w.clear();
        assert!(w.is_empty());
        assert!(!w.fire(TimerId(0), stamp));
        // Re-arming after a reboot fires normally.
        w.arm(TimerId(9), SimTime(30));
        assert_eq!(w.pop_due(SimTime(30)), Some(TimerId(9)));
    }
}
