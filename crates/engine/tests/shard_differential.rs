//! `shards = N` is bit-for-bit `shards = 1`: the cases of the engine's
//! mode matrix ([`mode_matrix`]) that this suite runs — seeded scripts on
//! the tiny Dragonfly, on a fat-tree and on a HyperX, and closed-loop task
//! programs — each in every execution mode and one split cell.
//!
//! It also pins two window-loop mechanics: `run_until` windows add up to one
//! drain, and the arena-segment contract — packets cross shards by value,
//! so arena residency plus mailbox transit is every outstanding packet.

mod mode_matrix;

use dragonfly_engine::config::ShardKind::{Fixed, Single};
use mode_matrix::{assert_drain_accounting, assert_split_windows_match_one_drain, run, Slice};

#[test]
fn sharded_runs_are_bit_identical_to_single_shard() {
    run(Slice::BitIdentical);
}

#[test]
fn sharded_runs_are_bit_identical_on_fattree_and_hyperx() {
    run(Slice::FatTreeAndHyperX);
}

#[test]
fn closed_loop_task_programs_are_shard_invariant() {
    run(Slice::ProgramsAcrossShards);
}

#[test]
fn run_until_and_run_to_drain_agree_on_event_accounting() {
    assert_split_windows_match_one_drain((Single, true), &[20_000, 100_000_000]);
}

#[test]
fn split_run_until_windows_match_one_drain_across_shards() {
    assert_split_windows_match_one_drain((Fixed(2), true), &[20_000, 100_000_000]);
}

#[test]
fn arena_segments_account_for_every_packet_mid_run() {
    assert_drain_accounting(false);
}
