//! Property-based determinism stress tests for the overlapped-window
//! pipelined engine: for *randomly generated* workload tuples
//! `(topology size, traffic pattern, load, seed, shards ∈ {1,2,4},
//! pipeline on/off)`, every execution mode must be bit-for-bit identical
//! to the sequential single-shard reference.
//!
//! The harness is a deterministic `proptest`-style generator (the offline
//! build has no proptest crate): a master seed drives a `StdRng` that
//! draws each case, the case tuple is printed in every assertion message
//! (the "minimal counterexample" you would get from a real proptest run
//! is the tuple itself — no shrinking is needed because cases are small),
//! and the whole suite is reproducible bit for bit.
//!
//! It also pins the `ShardDrain` accounting contract under pipelining:
//! mid-run, `sum(resident) + sum(inbound_mail) == outstanding` even while
//! packets sit in double-buffered parity mailboxes between windows.

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

/// The traffic shapes the generator can draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    /// Random distinct src/dst pairs.
    Uniform,
    /// Every node targets a node `shift` groups away (the paper's ADV+i,
    /// the imbalanced case work stealing exists for).
    Adversarial(usize),
    /// 20 % of packets converge on one hot node.
    Hotspot,
}

/// One generated stress case.
#[derive(Debug, Clone, Copy)]
struct Case {
    /// Dragonfly `(p, a, h)`.
    topo: (usize, usize, usize),
    pattern: Pattern,
    /// Packet count.
    count: u64,
    /// Mean inter-injection gap in ns (0 = same-tick bursts).
    gap_ns: u64,
    /// Script RNG seed.
    seed: u64,
}

/// Draw one case from the generator RNG.
fn draw_case(rng: &mut StdRng) -> Case {
    let topo = [(2usize, 4usize, 2usize), (3, 4, 2), (2, 6, 3)][rng.gen_range(0..3usize)];
    let groups = topo.1 * topo.2 + 1;
    let pattern = match rng.gen_range(0..4) {
        0 | 1 => Pattern::Uniform,
        2 => Pattern::Adversarial(1 + rng.gen_range(0..groups - 1)),
        _ => Pattern::Hotspot,
    };
    Case {
        topo,
        pattern,
        count: rng.gen_range(400..1_200),
        gap_ns: [0u64, 15, 40, 90][rng.gen_range(0..4usize)],
        seed: rng.gen(),
    }
}

/// Expand a case into a concrete injection script.
fn script_for(case: &Case, topo: &Dragonfly) -> Vec<Injection> {
    let mut rng = StdRng::seed_from_u64(case.seed);
    let n = topo.num_nodes();
    let groups = topo.num_groups();
    let nodes_per_group = n / groups;
    let hot = NodeId::from_index(rng.gen_range(0..n));
    (0..case.count)
        .map(|i| {
            let src = NodeId::from_index(rng.gen_range(0..n));
            let mut dst = match case.pattern {
                Pattern::Uniform => NodeId::from_index(rng.gen_range(0..n)),
                Pattern::Adversarial(shift) => {
                    // A node in the group `shift` groups ahead.
                    let src_group = src.index() / nodes_per_group;
                    let dst_group = (src_group + shift) % groups;
                    NodeId::from_index(
                        dst_group * nodes_per_group + rng.gen_range(0..nodes_per_group),
                    )
                }
                Pattern::Hotspot => {
                    if rng.gen_range(0..5) == 0 {
                        hot
                    } else {
                        NodeId::from_index(rng.gen_range(0..n))
                    }
                }
            };
            while dst == src {
                dst = NodeId::from_index(rng.gen_range(0..n));
            }
            Injection {
                time: i * case.gap_ns,
                src,
                dst,
            }
        })
        .collect()
}

fn make_engine(case: &Case, shards: ShardKind, pipeline: bool) -> Engine<CountingObserver> {
    let (p, a, h) = case.topo;
    let topo = Dragonfly::new(DragonflyConfig::new(p, a, h).expect("generator draws valid sizes"));
    let script = script_for(case, &topo);
    let algo = MinimalTestRouting;
    let mut cfg = EngineConfig::paper(3);
    cfg.shards = shards;
    cfg.pipeline = pipeline;
    Engine::new(
        topo,
        cfg,
        &algo,
        Box::new(ScriptedInjector::new(script)),
        CountingObserver::default(),
        42,
    )
}

fn run_case(
    case: &Case,
    shards: ShardKind,
    pipeline: bool,
) -> (EngineStats, CountingObserver, Vec<usize>, u64) {
    let mut engine = make_engine(case, shards, pipeline);
    let (_, processed) = engine.run_to_drain(500_000_000);
    let stats = engine.stats();
    let live = stats.shards.iter().map(|s| s.resident as usize).collect();
    (stats, engine.merged_observer(), live, processed)
}

/// The property: for any generated case, every `(shards, pipeline)`
/// combination reproduces the single-shard reference exactly.
#[test]
fn random_workloads_are_invariant_across_shards_and_pipelining() {
    const MASTER_SEED: u64 = 0xD1FF_E4E7;
    const CASES: usize = 8;
    let mut gen_rng = StdRng::seed_from_u64(MASTER_SEED);
    for case_no in 0..CASES {
        let case = draw_case(&mut gen_rng);
        let (ref_stats, ref_obs, ref_live, ref_events) = run_case(&case, ShardKind::Single, false);
        assert_eq!(ref_stats.delivered, case.count, "case {case_no} {case:?}");
        assert!(ref_live.iter().all(|l| *l == 0));
        for shard_count in [1usize, 2, 4] {
            for pipeline in [false, true] {
                let shards = if shard_count == 1 {
                    ShardKind::Single
                } else {
                    ShardKind::Fixed(shard_count)
                };
                let (stats, obs, live, events) = run_case(&case, shards, pipeline);
                let label =
                    format!("case {case_no} {case:?} shards={shard_count} pipeline={pipeline}");
                assert_eq!(
                    (stats.generated, stats.injected, stats.delivered),
                    (ref_stats.generated, ref_stats.injected, ref_stats.delivered),
                    "counters diverged: {label}"
                );
                assert_eq!(stats.events, ref_stats.events, "event totals: {label}");
                assert_eq!(events, ref_events, "processed counts: {label}");
                assert_eq!(obs.delivered, ref_obs.delivered, "{label}");
                assert_eq!(
                    obs.total_latency_ns, ref_obs.total_latency_ns,
                    "latency totals diverged: {label}"
                );
                assert_eq!(obs.total_hops, ref_obs.total_hops, "hop totals: {label}");
                assert!(live.iter().all(|l| *l == 0), "arena leak: {label} {live:?}");
            }
        }
    }
}

/// Closed-loop task programs under the overlapped-window pipeline: task
/// wakeups scheduled near window edges must commit identically whether
/// windows overlap or run in lockstep, for every shard count.
#[test]
fn closed_loop_task_programs_are_pipeline_invariant() {
    use dragonfly_engine::injector::EmptyInjector;
    use dragonfly_engine::{NodeProgram, Op};
    let n = Dragonfly::new(DragonflyConfig::tiny()).num_nodes();
    // A two-round neighbour exchange with per-node compute skew so wakeups
    // land at many different offsets inside the 150 ns pipeline windows.
    let programs: Vec<NodeProgram> = (0..n)
        .map(|i| {
            let next = NodeId::from_index((i + 1) % n);
            let prev = NodeId::from_index((i + n - 1) % n);
            vec![
                Op::Compute {
                    delay_ns: (i as u64 % 11) * 37,
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
                    dst: prev,
                    messages: 1,
                },
                Op::Recv {
                    from: next,
                    messages: 1,
                    barrier: true,
                },
                Op::Phase { index: 1 },
            ]
        })
        .collect();
    let run = |shards: ShardKind, pipeline: bool| {
        let algo = MinimalTestRouting;
        let mut cfg = EngineConfig::paper(3);
        cfg.shards = shards;
        cfg.pipeline = pipeline;
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
            (
                engine.stats().generated,
                engine.stats().injected,
                engine.stats().delivered,
                engine.stats().events,
            ),
            engine.merged_observer(),
            processed,
        )
    };
    let (ref_stats, ref_obs, ref_events) = run(ShardKind::Single, false);
    assert_eq!(ref_stats.2, 3 * n as u64, "delivered count");
    for shard_count in [1usize, 2, 4] {
        for pipeline in [false, true] {
            let shards = if shard_count == 1 {
                ShardKind::Single
            } else {
                ShardKind::Fixed(shard_count)
            };
            let (stats, obs, events) = run(shards, pipeline);
            let label = format!("shards={shard_count} pipeline={pipeline}");
            assert_eq!(stats, ref_stats, "{label}");
            assert_eq!(events, ref_events, "{label}");
            assert_eq!(obs.delivered, ref_obs.delivered, "{label}");
            assert_eq!(obs.total_latency_ns, ref_obs.total_latency_ns, "{label}");
            assert_eq!(obs.total_hops, ref_obs.total_hops, "{label}");
        }
    }
}

/// Capped `run_until` windows cut the pipelined epochs at arbitrary
/// points (mail parked in parity mailboxes, epochs re-origined); the
/// stitched-together run must equal one uninterrupted drain.
#[test]
fn split_run_until_windows_match_one_drain_under_pipelining() {
    let case = Case {
        topo: (2, 4, 2),
        pattern: Pattern::Uniform,
        count: 900,
        gap_ns: 55,
        seed: 7,
    };
    let mut stepped = make_engine(&case, ShardKind::Fixed(4), true);
    let mut processed = 0;
    // Deliberately awkward cut points: mid-window, on a window boundary
    // (300 ns lookahead → 150 ns windows), and far beyond the traffic.
    for t in [137u64, 150, 4_650, 20_000, 100_000_000] {
        processed += stepped.run_until(t);
    }
    let mut drained = make_engine(&case, ShardKind::Fixed(4), true);
    let (_, one_shot) = drained.run_to_drain(100_000_000);
    assert_eq!(processed, one_shot, "split windows vs one drain");
    assert_eq!(stepped.stats(), drained.stats());
    let (a, b) = (stepped.merged_observer(), drained.merged_observer());
    assert_eq!(a.total_latency_ns, b.total_latency_ns);
    assert_eq!(a.total_hops, b.total_hops);
}

/// `ShardDrain` accounting under pipelining:
/// `sum(resident) + sum(inbound_mail) == outstanding` at every stop, in
/// both execution modes — which park in-flight mail differently.
///
/// The barrier mode exits `run_until` with the final window's mail still
/// inside the grid (`inbound_mail > 0` at hot cut points), while the
/// pipelined epoch loop always recovers grid mail into the owning queues
/// before returning, so a pipelined stop must report `inbound_mail == 0`
/// with every outstanding packet resident in some shard. Both are
/// asserted exactly, so the transit leg of the accounting is genuinely
/// exercised (by the barrier stops) and the pipelined drain-on-exit
/// contract is pinned rather than silently assumed.
#[test]
fn shard_drain_accounting_holds_under_pipelining() {
    let case = Case {
        topo: (2, 4, 2),
        pattern: Pattern::Adversarial(4),
        count: 2_000,
        gap_ns: 12, // hot: plenty of cross-shard transit at any cut
        seed: 31,
    };
    let cuts = [400u64, 1_500, 3_000, 7_777, 15_000, 24_000];
    for pipeline in [false, true] {
        let mut engine = make_engine(&case, ShardKind::Fixed(4), pipeline);
        let mut saw_mailbox_transit = false;
        for &t_end in &cuts {
            engine.run_until(t_end);
            let stats = engine.stats();
            let resident: u64 = stats.shards.iter().map(|s| s.resident).sum();
            assert_eq!(
                resident + stats.in_mailboxes(),
                stats.outstanding(),
                "pipeline={pipeline} t={t_end}: residency + mailbox transit must equal outstanding"
            );
            let held = (engine.nic_backlog() + engine.fabric_occupancy()) as u64;
            assert!(
                held <= resident,
                "per-shard resident covers the NIC backlogs and router buffers"
            );
            if pipeline {
                assert_eq!(
                    stats.in_mailboxes(),
                    0,
                    "t={t_end}: the pipelined epoch loop recovers all grid mail before returning"
                );
            }
            saw_mailbox_transit |= stats.in_mailboxes() > 0;
        }
        let (_, _) = engine.run_to_drain(500_000_000);
        let stats = engine.stats();
        assert_eq!(stats.delivered, case.count, "pipeline={pipeline}");
        assert_eq!(stats.in_mailboxes(), 0, "no parity-buffer residue");
        assert_eq!(stats.outstanding(), 0);
        if !pipeline {
            // The transit term of the accounting must have been non-zero
            // at least once, or the barrier leg of this test is vacuous.
            assert!(
                saw_mailbox_transit,
                "no barrier-mode cut ever caught a packet inside a mailbox — \
                 retune the cut times or the workload"
            );
        }
    }
}

/// A zero global-link latency leaves no conservative lookahead at all:
/// the engine must fall back to a single sequential shard (pipelining
/// included) rather than running an unsound window loop.
#[test]
fn zero_lookahead_degrades_to_sequential_even_with_pipeline_on() {
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let algo = MinimalTestRouting;
    let mut cfg = EngineConfig::paper(3);
    cfg.global_latency_ns = 0;
    cfg.shards = ShardKind::Fixed(4);
    cfg.pipeline = true;
    let script = vec![Injection {
        time: 0,
        src: NodeId(0),
        dst: NodeId(40),
    }];
    let mut engine = Engine::new(
        topo,
        cfg,
        &algo,
        Box::new(ScriptedInjector::new(script)),
        CountingObserver::default(),
        1,
    );
    assert_eq!(engine.num_shards(), 1, "no lookahead → one shard");
    let (_, processed) = engine.run_to_drain(10_000_000);
    assert!(processed > 0);
    assert_eq!(engine.stats().delivered, 1);
}

/// A 1 ns lookahead supports sharding but not window-halving; the engine
/// must fall back to the lockstep barrier (pipeline is "ignored when the
/// lookahead is under 2 ns") and still match the sequential reference.
#[test]
fn sub_two_ns_lookahead_falls_back_to_the_barrier_mode() {
    let run = |shards: ShardKind| -> (EngineStats, SimTime) {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let algo = MinimalTestRouting;
        let mut cfg = EngineConfig::paper(3);
        cfg.global_latency_ns = 1;
        cfg.shards = shards;
        cfg.pipeline = true;
        let script = script_for(
            &Case {
                topo: (2, 4, 2),
                pattern: Pattern::Uniform,
                count: 300,
                gap_ns: 50,
                seed: 3,
            },
            &topo,
        );
        let mut engine = Engine::new(
            topo,
            cfg,
            &algo,
            Box::new(ScriptedInjector::new(script)),
            CountingObserver::default(),
            1,
        );
        let (t, _) = engine.run_to_drain(500_000_000);
        (engine.stats(), t)
    };
    let (single, t1) = run(ShardKind::Single);
    let (sharded, t2) = run(ShardKind::Fixed(2));
    assert_eq!(single.generated, sharded.generated);
    assert_eq!(single.delivered, sharded.delivered);
    assert_eq!(single.events, sharded.events);
    assert_eq!(t1, t2);
}
