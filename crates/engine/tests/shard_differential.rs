//! Differential determinism test for the conservative-parallel engine:
//! `shards = N` must be bit-for-bit identical to `shards = 1`.
//!
//! The content-derived event key (see `dragonfly_engine::event::event_key`)
//! makes the same-nanosecond processing order independent of which queue
//! an event was pushed into, so partitioning the routers into shards —
//! with cross-shard events travelling through mailboxes — cannot change
//! any observable: engine counters, processed event counts, delivered
//! packets, latency and hop totals all match exactly. This file drives the
//! same seeded random workloads through 1, 2 and 4 shards and asserts
//! exactly that.
//!
//! It also pins the arena-segment contract: packets cross shard
//! boundaries **by value**, so `PacketRef` handles never leave the arena
//! that issued them, and per-shard arena residency plus mailbox transit
//! always accounts for every outstanding packet.

use dragonfly_engine::config::{EngineConfig, ShardKind};
use dragonfly_engine::engine::EngineStats;
use dragonfly_engine::injector::{Injection, ScriptedInjector};
use dragonfly_engine::observer::CountingObserver;
use dragonfly_engine::testing::MinimalTestRouting;
use dragonfly_engine::time::SimTime;
use dragonfly_engine::Engine;
use dragonfly_topology::config::DragonflyConfig;
use dragonfly_topology::ids::NodeId;
use dragonfly_topology::Dragonfly;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a seeded random injection script: `count` packets between random
/// distinct nodes with inter-arrival `gap_ns`.
fn random_script(seed: u64, count: u64, gap_ns: u64, num_nodes: usize) -> Vec<Injection> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let src = NodeId::from_index(rng.gen_range(0..num_nodes));
            let mut dst = NodeId::from_index(rng.gen_range(0..num_nodes));
            while dst == src {
                dst = NodeId::from_index(rng.gen_range(0..num_nodes));
            }
            Injection {
                time: i * gap_ns,
                src,
                dst,
            }
        })
        .collect()
}

fn make_engine(shards: ShardKind, script: Vec<Injection>) -> Engine<CountingObserver> {
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let algo = MinimalTestRouting;
    let mut cfg = EngineConfig::paper(3);
    cfg.shards = shards;
    Engine::new(
        topo,
        cfg,
        &algo,
        Box::new(ScriptedInjector::new(script)),
        CountingObserver::default(),
        42,
    )
}

/// Packets each shard holds, in shard order.
fn resident_counts(stats: &EngineStats) -> Vec<usize> {
    stats.shards.iter().map(|s| s.resident as usize).collect()
}

fn run_with(
    shards: ShardKind,
    script: Vec<Injection>,
    t_end: SimTime,
) -> (EngineStats, CountingObserver, Vec<usize>, u64) {
    let mut engine = make_engine(shards, script);
    let (_, processed) = engine.run_to_drain(t_end);
    let live = resident_counts(&engine.stats());
    (engine.stats(), engine.merged_observer(), live, processed)
}

#[test]
fn sharded_runs_are_bit_identical_to_single_shard() {
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let n = topo.num_nodes();
    // Several load levels: light (uncontended), heavy (blocked packets,
    // waiter lists, credit stalls) and bursty same-tick injections.
    for (seed, count, gap) in [(3u64, 2_000u64, 80u64), (7, 3_000, 20), (11, 1_000, 0)] {
        let script = random_script(seed, count, gap, n);
        let (base_stats, base_obs, base_live, base_events) =
            run_with(ShardKind::Single, script.clone(), 500_000_000);
        for shard_count in [2usize, 4] {
            let (stats, obs, live, events) =
                run_with(ShardKind::Fixed(shard_count), script.clone(), 500_000_000);
            assert_eq!(
                (stats.generated, stats.injected, stats.delivered),
                (
                    base_stats.generated,
                    base_stats.injected,
                    base_stats.delivered
                ),
                "counters diverged for seed {seed} gap {gap} shards {shard_count}"
            );
            assert_eq!(
                stats.events, base_stats.events,
                "event totals diverged for seed {seed} gap {gap} shards {shard_count}"
            );
            assert_eq!(events, base_events, "processed counts diverged");
            assert_eq!(obs.delivered, base_obs.delivered);
            assert_eq!(
                obs.total_latency_ns, base_obs.total_latency_ns,
                "latency totals diverged for seed {seed} gap {gap} shards {shard_count}"
            );
            assert_eq!(obs.total_hops, base_obs.total_hops);
            // The workload drains completely on every shard count.
            assert_eq!(stats.delivered, count);
            assert!(
                live.iter().all(|l| *l == 0),
                "arena leaked packets: {live:?}"
            );
            assert_eq!(stats.shards.len(), shard_count);
        }
        assert_eq!(base_stats.delivered, count);
        assert_eq!(base_live, vec![0]);
    }
}

#[test]
fn sharded_runs_are_bit_identical_on_fattree_and_hyperx() {
    // The differential contract is topology-generic: partitioning by
    // fat-tree pod or HyperX row must be exactly as invisible as
    // partitioning by Dragonfly group.
    use dragonfly_topology::{AnyTopology, FatTree, FatTreeConfig, HyperX, HyperXConfig, Topology};
    let topologies: Vec<AnyTopology> = vec![
        FatTree::new(FatTreeConfig::tiny()).into(),
        HyperX::new(HyperXConfig::tiny()).into(),
    ];
    for topo in &topologies {
        let script = random_script(19, 1_500, 40, topo.num_nodes());
        let run = |shards: ShardKind| {
            let algo = MinimalTestRouting;
            let mut cfg = EngineConfig::paper(3);
            cfg.shards = shards;
            let mut engine = Engine::new(
                topo.clone(),
                cfg,
                &algo,
                Box::new(ScriptedInjector::new(script.clone())),
                CountingObserver::default(),
                42,
            );
            let (_, processed) = engine.run_to_drain(500_000_000);
            let live = resident_counts(&engine.stats());
            (engine.stats(), engine.merged_observer(), live, processed)
        };
        let (base_stats, base_obs, base_live, base_events) = run(ShardKind::Single);
        assert_eq!(base_stats.delivered, 1_500, "{}", topo.kind_name());
        assert_eq!(base_live, vec![0]);
        for shard_count in [2usize, 4] {
            let (stats, obs, live, events) = run(ShardKind::Fixed(shard_count));
            assert_eq!(stats.shards.len(), shard_count);
            assert_eq!(
                stats.aggregate_fields(),
                base_stats.aggregate_fields(),
                "{}: engine stats diverged at {shard_count} shards",
                topo.kind_name()
            );
            assert_eq!(events, base_events, "{}", topo.kind_name());
            assert_eq!(obs.total_latency_ns, base_obs.total_latency_ns);
            assert_eq!(obs.total_hops, base_obs.total_hops);
            assert!(live.iter().all(|l| *l == 0), "arena leak: {live:?}");
        }
    }
}

/// Compare [`EngineStats`] across shard counts: the per-shard drain view
/// necessarily differs in shape, so compare the aggregate fields only.
trait AggregateFields {
    fn aggregate_fields(&self) -> (u64, u64, u64, u64);
}

impl AggregateFields for EngineStats {
    fn aggregate_fields(&self) -> (u64, u64, u64, u64) {
        (self.generated, self.injected, self.delivered, self.events)
    }
}

#[test]
fn closed_loop_task_programs_are_shard_invariant() {
    // Hand-rolled task programs (no workload crate: the engine contract is
    // pinned at the Op level): a ring exchange, a phase marker, a pairwise
    // barrier exchange and trailing compute. TaskWake/TaskRecv events must
    // commit in the same order on every shard count.
    use dragonfly_engine::injector::EmptyInjector;
    use dragonfly_engine::{NodeProgram, Op};
    let n = Dragonfly::new(DragonflyConfig::tiny()).num_nodes();
    let programs: Vec<NodeProgram> = (0..n)
        .map(|i| {
            let next = NodeId::from_index((i + 1) % n);
            let prev = NodeId::from_index((i + n - 1) % n);
            let pair = NodeId::from_index((i + n / 2) % n);
            vec![
                Op::Compute {
                    delay_ns: 50 + (i as u64 % 7) * 10,
                },
                Op::Send {
                    dst: next,
                    messages: 2,
                },
                Op::Recv {
                    from: prev,
                    messages: 2,
                    barrier: false,
                },
                Op::Phase { index: 0 },
                Op::Send {
                    dst: pair,
                    messages: 1,
                },
                Op::Recv {
                    from: pair,
                    messages: 1,
                    barrier: true,
                },
                Op::Compute { delay_ns: 25 },
                Op::Phase { index: 1 },
            ]
        })
        .collect();
    let run = |shards: ShardKind| {
        let algo = MinimalTestRouting;
        let mut cfg = EngineConfig::paper(3);
        cfg.shards = shards;
        let mut engine = Engine::new(
            Dragonfly::new(DragonflyConfig::tiny()),
            cfg,
            &algo,
            Box::new(EmptyInjector),
            CountingObserver::default(),
            42,
        );
        engine.install_workload(programs.clone());
        let (_, processed) = engine.run_to_drain(500_000_000);
        assert_eq!(engine.tasks_finished(), n as u64, "program must drain");
        assert!(engine.stats().shards.iter().all(|s| s.resident == 0));
        (
            engine.stats().aggregate_fields(),
            engine.merged_observer(),
            processed,
        )
    };
    let (base_stats, base_obs, base_events) = run(ShardKind::Single);
    // 2 ring + 1 pairwise message per node.
    assert_eq!(base_stats.2, 3 * n as u64, "delivered count");
    for shard_count in [2usize, 4] {
        let (stats, obs, events) = run(ShardKind::Fixed(shard_count));
        let label = format!("shards={shard_count}");
        assert_eq!(stats, base_stats, "{label}");
        assert_eq!(events, base_events, "{label}");
        assert_eq!(obs.delivered, base_obs.delivered, "{label}");
        assert_eq!(obs.total_latency_ns, base_obs.total_latency_ns, "{label}");
        assert_eq!(obs.total_hops, base_obs.total_hops, "{label}");
    }
}

/// One engine stepped in two `run_until` windows must process the same
/// events as one engine drained in a single call.
fn assert_split_windows_match_one_drain(shards: ShardKind, script: Vec<Injection>) {
    let mut stepped = make_engine(shards, script.clone());
    let a = stepped.run_until(20_000);
    let b = stepped.run_until(100_000_000);
    let mut drained = make_engine(shards, script);
    let (_, c) = drained.run_to_drain(100_000_000);
    assert_eq!(a + b, c, "split run_until windows vs run_to_drain");
    assert_eq!(stepped.stats(), drained.stats());
    assert_eq!(stepped.stats().events, c, "stats.events counts all pops");
}

#[test]
fn run_until_and_run_to_drain_agree_on_event_accounting() {
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let script = random_script(5, 500, 60, topo.num_nodes());
    assert_split_windows_match_one_drain(ShardKind::Single, script);
}

#[test]
fn split_run_until_windows_match_one_drain_across_shards() {
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let script = random_script(9, 800, 60, topo.num_nodes());
    assert_split_windows_match_one_drain(ShardKind::Fixed(2), script);
}

/// The arena-segment contract: a packet lives in exactly one shard's arena
/// at a time (or in a mailbox between windows), so per-shard residency +
/// mailbox transit always equals the outstanding packet count — which is
/// only possible if `PacketRef` handles are translated (re-allocated) at
/// every shard crossing rather than smuggled across.
#[test]
fn arena_segments_account_for_every_packet_mid_run() {
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let n = topo.num_nodes();
    let script = random_script(13, 2_000, 15, n); // hot enough to queue up
    let mut engine = make_engine(ShardKind::Fixed(4), script);
    // Observe mid-flight at several cut points, including ones that leave
    // packets parked inside cross-shard mailboxes.
    for t_end in [500u64, 2_000, 5_000, 11_111, 20_000] {
        engine.run_until(t_end);
        let stats = engine.stats();
        let live: u64 = stats.shards.iter().map(|s| s.resident).sum();
        assert_eq!(
            live + stats.in_mailboxes(),
            stats.outstanding(),
            "at t={t_end}: residency + transit must equal outstanding"
        );
        // The per-shard drain view decomposes the same totals.
        let per_shard_resident: u64 = stats.shards.iter().map(|s| s.resident).sum();
        let per_shard_delivered: u64 = stats.shards.iter().map(|s| s.delivered).sum();
        assert_eq!(per_shard_resident, live);
        assert_eq!(per_shard_delivered, stats.delivered);
    }
    // Packets do cross shards in this workload (otherwise the test is
    // vacuous): with 4 shards of the 9-group tiny system, most traffic is
    // cross-shard.
    let (_, _) = engine.run_to_drain(500_000_000);
    let stats = engine.stats();
    assert_eq!(stats.delivered, 2_000);
    let final_live: u64 = stats.shards.iter().map(|s| s.resident).sum();
    assert_eq!(final_live, 0, "every arena slot recycled after drain");
    assert_eq!(stats.in_mailboxes(), 0, "no mailbox residue after drain");
    // Every shard both delivered something and processed events.
    for (i, shard) in stats.shards.iter().enumerate() {
        assert!(shard.events > 0, "shard {i} never ran");
        assert!(shard.delivered > 0, "shard {i} never delivered");
    }
}
