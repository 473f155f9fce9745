//! Cross-shard determinism of the parallel engine for both real
//! schemes: a fixed seed must produce identical metrics, final images,
//! and merged trace order at every shard count, and PR 3's chaos and
//! invariant machinery must keep working under sharding.
//!
//! Two tiers. The default (tier-1) tests cover both schemes on a 10×10
//! grid at shard counts {1, 2, 4} plus the 8×8 chaos scenario — every
//! shard boundary case (single shard, even split, more shards than
//! convenient) in a few seconds. The original full-size 20×20 sweeps
//! with shard count 8 are `#[ignore]`d and run by a dedicated CI job:
//!
//! ```text
//! cargo test --release --test sharding -- --ignored
//! ```

use lr_seluge::Deployment;
use lrs_bench::capsules::scale_params as small_lr;
use lrs_bench::matched_seluge_params;
use lrs_netsim::fault::FaultPlan;
use lrs_netsim::node::NodeId;
use lrs_netsim::sim::Outcome;
use lrs_netsim::time::{Duration, SimTime};
use lrs_netsim::topology::Topology;
use lrs_netsim::SimBuilder;
use lrs_seluge::SelugeDeployment;

/// Fast-core shard counts: 1 (the reference), one even split, one
/// split finer than the grid's row structure.
const FAST_SHARDS: [usize; 3] = [1, 2, 4];
/// Full-sweep shard counts, the original tier: adds the 8-way split.
const FULL_SHARDS: [usize; 4] = [1, 2, 4, 8];

fn test_image(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// Harvested per-node state compared across shard counts.
type NodeResult = (bool, Option<Vec<u8>>);

fn run_lr_sharded(
    grid_side: usize,
    seed: u64,
    shards: usize,
    faults: FaultPlan,
    with_invariants: bool,
) -> lrs_netsim::ShardedRun<NodeResult> {
    let image = test_image(1024);
    let deployment = Deployment::new(&image, small_lr(image.len()), b"sharding tests");
    let artifacts = deployment.artifacts().clone();
    let check_image = image.clone();
    // No shared digest cache here: the memo is Rc-based and nodes are
    // constructed inside shard worker threads.
    let builder = SimBuilder::new(Topology::grid(grid_side, 10.0, 77), seed, |id| {
        deployment.node(id, NodeId(0))
    })
    .faults(faults)
    .shards(shards)
    .collect_trace(true);
    let builder = if with_invariants {
        builder.invariants(move |node: &lr_seluge::deployment::LrNode, _id| {
            node.scheme().verify_invariants(&artifacts, &check_image)
        })
    } else {
        builder
    };
    builder.run_sharded(Duration::from_secs(100_000), |_, node| {
        (
            lrs_netsim::node::Protocol::is_complete(node),
            node.scheme().image(),
        )
    })
}

fn run_seluge_sharded(
    grid_side: usize,
    seed: u64,
    shards: usize,
) -> lrs_netsim::ShardedRun<NodeResult> {
    let image = test_image(1024);
    let params = matched_seluge_params(&small_lr(image.len()));
    let deployment = SelugeDeployment::new(&image, params, b"sharding tests");
    SimBuilder::new(Topology::grid(grid_side, 10.0, 77), seed, |id| {
        deployment.node(id, NodeId(0))
    })
    .shards(shards)
    .collect_trace(true)
    .run_sharded(Duration::from_secs(100_000), |_, node| {
        (
            lrs_netsim::node::Protocol::is_complete(node),
            node.scheme().image(),
        )
    })
}

/// Runs the LR-Seluge grid at every shard count and asserts bit
/// identity with the single-shard baseline.
fn assert_lr_shard_independent(grid_side: usize, seed: u64, shard_counts: &[usize]) {
    let baseline = run_lr_sharded(grid_side, seed, 1, FaultPlan::new(), false);
    assert_eq!(baseline.report.outcome, Outcome::Complete);
    let image = test_image(1024);
    for (complete, img) in &baseline.harvest {
        assert!(complete);
        assert_eq!(img.as_deref(), Some(&image[..]));
    }
    for shards in &shard_counts[1..] {
        let run = run_lr_sharded(grid_side, seed, *shards, FaultPlan::new(), false);
        assert_eq!(run.report.outcome, Outcome::Complete, "@ {shards} shards");
        assert_eq!(
            run.report.final_time, baseline.report.final_time,
            "final time @ {shards} shards"
        );
        assert_eq!(run.metrics, baseline.metrics, "metrics @ {shards} shards");
        assert_eq!(run.energy, baseline.energy, "energy @ {shards} shards");
        assert_eq!(run.harvest, baseline.harvest, "images @ {shards} shards");
        assert_eq!(run.trace, baseline.trace, "trace order @ {shards} shards");
    }
}

/// Seluge twin of [`assert_lr_shard_independent`].
fn assert_seluge_shard_independent(grid_side: usize, seed: u64, shard_counts: &[usize]) {
    let baseline = run_seluge_sharded(grid_side, seed, 1);
    assert_eq!(baseline.report.outcome, Outcome::Complete);
    let image = test_image(1024);
    for (complete, img) in &baseline.harvest {
        assert!(complete);
        assert_eq!(img.as_deref(), Some(&image[..]));
    }
    for shards in &shard_counts[1..] {
        let run = run_seluge_sharded(grid_side, seed, *shards);
        assert_eq!(run.report.outcome, Outcome::Complete, "@ {shards} shards");
        assert_eq!(run.metrics, baseline.metrics, "metrics @ {shards} shards");
        assert_eq!(run.harvest, baseline.harvest, "images @ {shards} shards");
        assert_eq!(run.trace, baseline.trace, "trace order @ {shards} shards");
    }
}

#[test]
fn lr_seluge_is_shard_count_independent_on_10x10_grid() {
    assert_lr_shard_independent(10, 42, &FAST_SHARDS);
}

#[test]
fn seluge_is_shard_count_independent_on_10x10_grid() {
    assert_seluge_shard_independent(10, 7, &FAST_SHARDS);
}

#[test]
#[ignore = "full-size sweep; run by the CI sharding-full job (--ignored)"]
fn lr_seluge_is_shard_count_independent_on_20x20_grid_full() {
    assert_lr_shard_independent(20, 42, &FULL_SHARDS);
}

#[test]
#[ignore = "full-size sweep; run by the CI sharding-full job (--ignored)"]
fn seluge_is_shard_count_independent_on_20x20_grid_full() {
    assert_seluge_shard_independent(20, 7, &FULL_SHARDS);
}

#[test]
fn chaos_under_sharding_keeps_invariants() {
    // A fault plan that spans two shards at every multi-shard count: a
    // crash-and-reboot in the north-west corner and a link outage plus a
    // permanent crash in the south-east one, mid-dissemination.
    let side = 8;
    let n = (side * side) as u32;
    let mut plan = FaultPlan::new();
    plan.crash_and_reboot(
        NodeId(side as u32 + 1),
        SimTime(400_000),
        Duration::from_secs(2),
    );
    plan.crash(NodeId(n - 2), SimTime(700_000));
    plan.link_outage(
        NodeId(n - 1),
        NodeId(n - side as u32 - 1),
        SimTime(300_000),
        Duration::from_secs(1),
    );
    let baseline = run_lr_sharded(side, 3, 1, plan.clone(), true);
    assert_eq!(
        baseline.report.outcome,
        Outcome::Complete,
        "diagnostic: {:?}",
        baseline.report.diagnostic.as_ref().map(|d| &d.reason)
    );
    assert!(
        baseline.report.diagnostic.is_none(),
        "zero violations expected"
    );
    for shards in [2usize, 4] {
        let run = run_lr_sharded(side, 3, shards, plan.clone(), true);
        assert_eq!(run.report.outcome, Outcome::Complete, "@ {shards} shards");
        assert!(run.report.diagnostic.is_none(), "@ {shards} shards");
        assert_eq!(run.metrics, baseline.metrics, "metrics @ {shards} shards");
        assert_eq!(run.trace, baseline.trace, "trace @ {shards} shards");
    }
}
