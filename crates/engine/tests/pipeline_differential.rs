//! Both sharded grids — half-lookahead windows with a two-window gate
//! (`pipeline` on) and lookahead windows in lockstep (`pipeline` off) —
//! are bit-for-bit the sequential run: the cases of the engine's mode
//! matrix ([`mode_matrix`]) that this suite runs — seeded scripts over
//! three Dragonfly sizes, a skewed closed-loop program — each in every
//! execution mode and one split cell.
//!
//! It also pins the window-loop mechanics no comparison can see: split
//! `run_until` windows on the pipelined grid, `ShardDrain` accounting, one
//! worker per shard with the caller as worker 0, and the short-lookahead
//! fallbacks.

mod mode_matrix;

use dragonfly_engine::config::ShardKind::{Fixed, Single};
use dragonfly_engine::observer::CountingObserver;
use dragonfly_engine::time::SimTime;
use dragonfly_engine::{EngineConfig, Packet, ShardObserver, ShardPlan, SimObserver};
use dragonfly_topology::ids::RouterId;
use mode_matrix::{
    assert_drain_accounting, assert_split_windows_match_one_drain, build, config, run, script,
    tiny, Pattern, Slice, Traffic, T_MAX,
};

#[test]
fn random_workloads_are_invariant_across_shards_and_pipelining() {
    run(Slice::RandomWorkloads);
}

#[test]
fn closed_loop_task_programs_are_pipeline_invariant() {
    run(Slice::ProgramsAcrossGrids);
}

/// Deliberately awkward cuts: mid-window, on a window boundary (300 ns
/// lookahead: 150 ns pipelined windows) and far beyond the traffic.
#[test]
fn split_run_until_windows_match_one_drain_under_pipelining() {
    let cuts = [137, 150, 4_650, 20_000, 100_000_000];
    assert_split_windows_match_one_drain((Fixed(4), true), &cuts);
}

#[test]
fn shard_drain_accounting_holds_under_pipelining() {
    assert_drain_accounting(true);
}

/// Records which thread delivered each packet, with the packet's
/// destination router.
#[derive(Debug, Default, Clone)]
struct DeliveringThreads(Vec<(std::thread::ThreadId, RouterId)>);

impl SimObserver for DeliveringThreads {
    fn packet_delivered(&mut self, packet: &Packet, _size_bytes: u32, _now: SimTime) {
        self.0
            .push((std::thread::current().id(), packet.dst_router));
    }
}

impl ShardObserver for DeliveringThreads {
    fn absorb(&mut self, other: &Self) {
        self.0.extend_from_slice(&other.0);
    }
}

/// One worker per shard, and the caller is worker 0: at `shards = 1`
/// every delivery runs on the calling thread; at `shards = 4`, on either
/// grid, exactly the deliveries to shard 0's routers do — no worker runs
/// another shard's windows.
#[test]
fn each_shard_runs_on_its_own_worker_and_shard_0_on_the_caller() {
    let traffic = Traffic::Script(script(&tiny(), Pattern::Uniform, 1_000, 15, 5));
    let caller = std::thread::current().id();
    for mode in [(Single, true), (Fixed(4), false), (Fixed(4), true)] {
        let observer = DeliveringThreads::default();
        let mut engine = build(&tiny(), &traffic, config(mode), observer);
        engine.run_to_drain(T_MAX);
        let plan = ShardPlan::new(engine.topology(), engine.num_shards(), 1);
        let deliveries = engine.merged_observer().0;
        assert_eq!(deliveries.len(), 1_000);
        for (thread, router) in deliveries {
            let shard = plan.shard_of_router(router);
            assert_eq!(
                thread == caller,
                shard == 0,
                "{mode:?}: a delivery to router {router:?} of shard {shard} ran on {thread:?}, \
                 the caller is {caller:?}"
            );
        }
    }
}

/// A zero global-link latency leaves no conservative lookahead: the engine
/// falls back to one shard, pipeline or not.
#[test]
fn zero_lookahead_degrades_to_sequential_even_with_pipeline_on() {
    let one = Traffic::Script(script(&tiny(), Pattern::Uniform, 1, 0, 1));
    let cfg = EngineConfig {
        global_latency_ns: 0,
        ..config((Fixed(4), true))
    };
    let mut engine = build(&tiny(), &one, cfg, CountingObserver::default());
    assert_eq!(engine.num_shards(), 1, "no lookahead → one shard");
    let (_, processed) = engine.run_to_drain(10_000_000);
    assert!(processed > 0);
    assert_eq!(engine.stats().delivered, 1);
}

/// A 1 ns lookahead supports shards but not half windows: the engine falls
/// back to the lockstep grid and still matches the single-shard run.
#[test]
fn sub_two_ns_lookahead_falls_back_to_the_barrier_mode() {
    let traffic = Traffic::Script(script(&tiny(), Pattern::Uniform, 300, 50, 3));
    let drain = |shards| {
        let cfg = EngineConfig {
            global_latency_ns: 1,
            ..config((shards, true))
        };
        let mut engine = build(&tiny(), &traffic, cfg, CountingObserver::default());
        let (t, _) = engine.run_to_drain(T_MAX);
        let s = engine.stats();
        (s.generated, s.delivered, s.events, t)
    };
    assert_eq!(drain(Single), drain(Fixed(2)));
}
