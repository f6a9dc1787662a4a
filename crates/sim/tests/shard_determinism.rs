//! `shards = N` is bit-for-bit `shards = 1` on the real routing algorithms
//! — adaptive decisions, per-router RNGs, Q-table updates fed by
//! cross-shard RL feedback — through the full spec → report pipeline: the
//! cases of the sim mode matrix ([`mode_matrix`]) that this suite runs, each
//! in every execution mode and one split cell.

mod common;
mod mode_matrix;

use mode_matrix::{run, Slice};

#[test]
fn ugal_workload_is_shard_count_invariant() {
    run(Slice::UgalOnDragonfly);
}

/// Q-adaptive is the adversarial case: every committed hop sends RL
/// feedback upstream and Q-table updates do not commute.
#[test]
fn qadaptive_workload_is_shard_count_invariant() {
    run(Slice::QAdaptiveOnDragonfly);
}

/// The log-binned latency sketch merges by integer bin addition.
#[test]
fn streaming_sketch_is_shard_count_invariant() {
    run(Slice::StreamingSketch);
}

#[test]
fn fattree_and_hyperx_workloads_are_shard_count_invariant() {
    run(Slice::FatTreeAndHyperXUniform);
}

/// Collectives put task wakeups on both sides of every shard boundary.
#[test]
fn closed_loop_workloads_are_shard_count_invariant() {
    run(Slice::AllReduce);
}

#[test]
fn faulted_workloads_are_shard_count_invariant() {
    run(Slice::OpenLoopFaults);
}

/// MIN, Valiant, UGAL-G, UGAL-N, PAR and Q-adaptive each finish a run that
/// loses 5 % of its global links.
#[test]
fn five_percent_link_loss_survives_all_six_algorithms() {
    run(Slice::LinkLossLineup);
}

/// `Auto` resolves to what the host offers; the result must not depend on
/// it.
#[test]
fn auto_sharding_matches_single_too() {
    run(Slice::AutoSharding);
}
