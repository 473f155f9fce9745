//! Scenario minimization by delta debugging.
//!
//! A chaos sweep that finds a failure usually finds it under a fault
//! plan with dozens of events, almost all of which are noise. [`ddmin`]
//! implements Zeller-style delta debugging over any cloneable item
//! list; [`shrink_fault_plan`] applies it to a [`FaultPlan`], reducing
//! a failing schedule to a 1-minimal subset that still fails — the
//! minimal reproducer a bug report should carry.
//!
//! The oracle closure decides what "fails" means: typically "replaying
//! the capsule with this candidate plan still ends in the same
//! `Outcome`". Because the engine is deterministic, the oracle is a
//! pure function of its input and the shrink result is reproducible.

use crate::fault::{FaultEvent, FaultPlan};

/// Statistics from a shrink run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Item count before shrinking.
    pub from: usize,
    /// Item count after shrinking.
    pub to: usize,
    /// How many times the oracle was invoked.
    pub oracle_calls: usize,
}

/// Minimizes `items` to a 1-minimal failing subset under `fails`.
///
/// `fails(subset)` must return `true` when the subset still reproduces
/// the failure. Subsets preserve the original item order. If the full
/// set does not fail, it is returned unchanged (there is nothing to
/// minimize toward).
pub fn ddmin<T: Clone>(items: &[T], mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    if current.is_empty() || !fails(&current) {
        return current;
    }
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let len = current.len();
        let chunk = len.div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            let subset: Vec<T> = current[start..end].to_vec();
            if subset.len() < len && fails(&subset) {
                // Failure isolated inside one chunk: restart there at
                // the coarsest granularity.
                current = subset;
                granularity = 2;
                reduced = true;
                break;
            }
            let mut complement: Vec<T> = current[..start].to_vec();
            complement.extend_from_slice(&current[end..]);
            if !complement.is_empty() && complement.len() < len && fails(&complement) {
                // The chunk was irrelevant: drop it and keep carving
                // the remainder at one granularity step coarser.
                current = complement;
                granularity = (granularity - 1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= len {
                break;
            }
            granularity = (granularity * 2).min(len);
        }
    }
    current
}

/// Delta-debugs a failing fault plan down to a minimal subset that
/// still fails, preserving event order. Returns the shrunk plan and
/// shrink statistics.
pub fn shrink_fault_plan(
    plan: &FaultPlan,
    mut fails: impl FnMut(&FaultPlan) -> bool,
) -> (FaultPlan, ShrinkStats) {
    let mut oracle_calls = 0usize;
    let minimal = ddmin(plan.events(), |events| {
        oracle_calls += 1;
        fails(&plan_from(events))
    });
    let stats = ShrinkStats {
        from: plan.len(),
        to: minimal.len(),
        oracle_calls,
    };
    (plan_from(&minimal), stats)
}

fn plan_from(events: &[FaultEvent]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for event in events {
        plan.push(*event);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrs_host::node::NodeId;
    use lrs_host::time::SimTime;

    #[test]
    fn ddmin_isolates_a_single_culprit() {
        // Failure iff the set contains 13; 40 decoys.
        let items: Vec<u32> = (0..41).collect();
        let minimal = ddmin(&items, |subset| subset.contains(&13));
        assert_eq!(minimal, vec![13]);
    }

    #[test]
    fn ddmin_finds_a_two_element_interaction() {
        // Failure needs BOTH 3 and 29 — the case that defeats naive
        // one-at-a-time removal.
        let items: Vec<u32> = (0..32).collect();
        let minimal = ddmin(&items, |subset| subset.contains(&3) && subset.contains(&29));
        assert_eq!(minimal, vec![3, 29]);
    }

    #[test]
    fn ddmin_preserves_order() {
        let items = vec![5u32, 1, 9, 2, 7];
        let minimal = ddmin(&items, |subset| subset.contains(&9) && subset.contains(&7));
        assert_eq!(minimal, vec![9, 7]);
    }

    #[test]
    fn non_failing_input_is_returned_unchanged() {
        let items = vec![1u32, 2, 3];
        assert_eq!(ddmin(&items, |_| false), items);
        assert!(ddmin(&Vec::<u32>::new(), |_| true).is_empty());
    }

    #[test]
    fn fault_plan_shrink_reports_stats() {
        let mut plan = FaultPlan::new();
        for i in 0..20u32 {
            plan.crash(NodeId(i), SimTime(u64::from(i) * 1_000));
        }
        // Only the crash of node 13 matters.
        let (shrunk, stats) = shrink_fault_plan(&plan, |candidate| {
            candidate
                .events()
                .iter()
                .any(|e| matches!(e, FaultEvent::Crash { node, .. } if *node == NodeId(13)))
        });
        assert_eq!(shrunk.len(), 1);
        assert_eq!(stats.from, 20);
        assert_eq!(stats.to, 1);
        assert!(stats.oracle_calls > 1);
    }
}
