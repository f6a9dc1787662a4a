//! Cross-shard determinism on the real routing algorithms.
//!
//! The engine-level `shard_differential` test pins the contract with the
//! cheap test router; this file drives seeded **UGAL** and **Q-adaptive**
//! workloads — adaptive decisions, per-router RNGs, Q-table updates fed by
//! cross-shard RL feedback — through the full spec/metrics pipeline and
//! asserts that `shards = 2` and `shards = 4` reproduce the `shards = 1`
//! report bit for bit (every field except wall-clock timings), under the
//! default pipelined engine unless a test sweeps the flag too.

mod common;

use common::{assert_same_report, run_mode};
use dragonfly_engine::config::ShardKind;
use dragonfly_routing::RoutingSpec;
use dragonfly_sim::spec::ExperimentSpec;
use dragonfly_topology::config::DragonflyConfig;
use dragonfly_topology::TopologySpec;
use dragonfly_traffic::TrafficSpec;
use qadaptive_core::QAdaptiveParams;

fn spec(routing: RoutingSpec, traffic: TrafficSpec, seed: u64) -> ExperimentSpec {
    spec_on(DragonflyConfig::tiny().into(), routing, traffic, seed)
}

fn spec_on(
    topology: TopologySpec,
    routing: RoutingSpec,
    traffic: TrafficSpec,
    seed: u64,
) -> ExperimentSpec {
    ExperimentSpec {
        routing,
        traffic,
        load: Some(0.35),
        warmup_ns: 15_000,
        measure_ns: 25_000,
        tail_ns: 5_000,
        seed: Some(seed),
        ..ExperimentSpec::new(topology)
    }
}

#[test]
fn ugal_workload_is_shard_count_invariant() {
    for (traffic, seed) in [
        (TrafficSpec::UniformRandom, 21u64),
        (TrafficSpec::Adversarial { shift: 1 }, 22),
    ] {
        let base = spec(RoutingSpec::UgalG, traffic, seed);
        let single = run_mode(base.clone(), ShardKind::Single, true);
        assert!(single.packets_delivered > 200, "workload too small to pin");
        for shards in [2usize, 4] {
            let sharded = run_mode(base.clone(), ShardKind::Fixed(shards), true);
            assert_same_report(
                &single,
                &sharded,
                &format!("UGALg/{} shards={shards}", single.traffic),
            );
        }
    }
}

#[test]
fn qadaptive_workload_is_shard_count_invariant() {
    // Q-adaptive is the adversarial case for parallel determinism: every
    // committed hop sends RL feedback upstream (cross-shard for global
    // hops), and Q-table updates do not commute — any reordering would
    // change routing decisions and show up in the latency distribution.
    for (traffic, seed) in [
        (TrafficSpec::UniformRandom, 31u64),
        (TrafficSpec::Adversarial { shift: 2 }, 32),
    ] {
        let base = spec(
            RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
            traffic,
            seed,
        );
        let single = run_mode(base.clone(), ShardKind::Single, true);
        assert!(single.packets_delivered > 200, "workload too small to pin");
        for shards in [2usize, 4] {
            let sharded = run_mode(base.clone(), ShardKind::Fixed(shards), true);
            assert_same_report(
                &single,
                &sharded,
                &format!("Q-adaptive/{} shards={shards}", single.traffic),
            );
        }
    }
}

#[test]
fn streaming_sketch_is_shard_count_invariant() {
    // With the log-binned latency sketch the shard merge is elementwise
    // integer bin addition, so the streamed quantiles must be bit-identical
    // for every shard count — the property that lets the 100k-node scale
    // runs stream statistics instead of hoarding per-packet samples.
    use dragonfly_sim::spec::{MetricsMode, MetricsSpec};
    let mut base = spec(
        RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
        TrafficSpec::UniformRandom,
        33,
    );
    base.metrics = Some(MetricsSpec {
        mode: MetricsMode::Streaming,
    });
    let single = run_mode(base.clone(), ShardKind::Single, true);
    assert!(single.packets_delivered > 200, "workload too small to pin");
    assert!(single.memory_bytes > 0, "memory rollup must be reported");
    for shards in [2usize, 4] {
        let sharded = run_mode(base.clone(), ShardKind::Fixed(shards), true);
        assert_same_report(&single, &sharded, &format!("streaming shards={shards}"));
    }
}

#[test]
fn fattree_and_hyperx_workloads_are_shard_count_invariant() {
    // Domain-partitioned sharding must be bit-for-bit exact when the
    // domains are fat-tree pods or HyperX rows, under both UGAL and
    // Q-adaptive.
    use dragonfly_topology::{FatTreeConfig, HyperXConfig};
    let topologies: Vec<TopologySpec> = vec![
        FatTreeConfig { k: 4 }.into(),
        HyperXConfig {
            p: 2,
            rows: 4,
            cols: 4,
        }
        .into(),
    ];
    for topology in topologies {
        for (routing, seed) in [
            (RoutingSpec::UgalG, 51u64),
            (RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()), 52),
        ] {
            let base = spec_on(topology, routing, TrafficSpec::UniformRandom, seed);
            let single = run_mode(base.clone(), ShardKind::Single, true);
            assert!(single.packets_delivered > 100, "workload too small to pin");
            for shards in [2usize, 4] {
                let sharded = run_mode(base.clone(), ShardKind::Fixed(shards), true);
                assert_same_report(
                    &single,
                    &sharded,
                    &format!("{topology:?}/{routing:?} shards={shards}"),
                );
            }
        }
    }
}

#[test]
fn closed_loop_workloads_are_shard_count_invariant() {
    // Collectives and halo exchanges exercise the task-wakeup event
    // classes (TaskWake / TaskRecv) across shard boundaries; the full
    // report — including every completion-time field — must match the
    // single-shard run on all three topologies.
    use dragonfly_topology::{FatTreeConfig, HyperXConfig, Topology};
    use dragonfly_workload::WorkloadSpec;
    let topologies: Vec<TopologySpec> = vec![
        DragonflyConfig::tiny().into(),
        FatTreeConfig { k: 4 }.into(),
        HyperXConfig {
            p: 2,
            rows: 4,
            cols: 4,
        }
        .into(),
    ];
    let workloads = [
        WorkloadSpec::AllReduce { messages: 2 },
        WorkloadSpec::Sequence(vec![
            WorkloadSpec::HaloExchange {
                phases: 2,
                messages: 2,
                compute_ns: 100,
            },
            WorkloadSpec::Barrier,
        ]),
    ];
    for topology in topologies {
        for workload in &workloads {
            for (routing, seed) in [
                (RoutingSpec::UgalG, 61u64),
                (RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()), 62),
            ] {
                let mut base = spec_on(topology, routing, TrafficSpec::UniformRandom, seed);
                base.workload = Some(workload.clone());
                base.load = Some(1.0);
                base.warmup_ns = 0;
                base.measure_ns = 10_000_000;
                base.tail_ns = 0;
                let single = run_mode(base.clone(), ShardKind::Single, true);
                assert_eq!(
                    single.ranks_finished,
                    topology.build().num_nodes() as u64,
                    "{topology:?}/{workload:?}: every rank must finish"
                );
                assert!(single.job_completion_us > 0.0);
                for shards in [2usize, 4] {
                    let sharded = run_mode(base.clone(), ShardKind::Fixed(shards), true);
                    assert_same_report(
                        &single,
                        &sharded,
                        &format!("{topology:?}/{routing:?}/{workload:?} shards={shards}"),
                    );
                }
            }
        }
    }
}

#[test]
fn faulted_workloads_are_shard_count_invariant() {
    // Fault injection must not weaken the determinism contract: the same
    // mid-run link loss plus a router kill-and-restore produces identical
    // reports — drops, retransmissions and recovery time included — for
    // every shard count on all three fabrics.
    use dragonfly_sim::fault::FaultSpecEntry;
    use dragonfly_topology::{FatTreeConfig, HyperXConfig};
    let topologies: Vec<TopologySpec> = vec![
        DragonflyConfig::tiny().into(),
        FatTreeConfig { k: 4 }.into(),
        HyperXConfig {
            p: 2,
            rows: 4,
            cols: 4,
        }
        .into(),
    ];
    let faults = vec![
        FaultSpecEntry::random_global_down(20.0, 0.05, 7),
        FaultSpecEntry::router_down(25.0, 1),
        FaultSpecEntry::router_up(35.0, 1),
    ];
    for topology in topologies {
        for (routing, seed) in [
            (RoutingSpec::UgalG, 81u64),
            (RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()), 82),
        ] {
            let mut base = spec_on(topology, routing, TrafficSpec::UniformRandom, seed);
            base.faults = faults.clone();
            base.series_bin_ns = Some(5_000);
            base.validate().expect("fault schedule compiles everywhere");
            let single = run_mode(base.clone(), ShardKind::Single, true);
            assert!(single.packets_delivered > 100, "workload too small to pin");
            assert!(
                single.dropped_packets > 0,
                "{topology:?}/{routing:?}: a router kill mid-run must drop packets"
            );
            for shards in [2usize, 4] {
                let sharded = run_mode(base.clone(), ShardKind::Fixed(shards), true);
                assert_same_report(
                    &single,
                    &sharded,
                    &format!("faulted {topology:?}/{routing:?} shards={shards}"),
                );
            }
        }
    }
}

#[test]
fn five_percent_link_loss_survives_all_six_algorithms() {
    // Acceptance pin for the fault layer: a Dragonfly run that loses 5% of
    // its global links mid-run completes under the full paper lineup —
    // MIN, Valiant, UGAL-G, UGAL-N, PAR and Q-adaptive — and every
    // algorithm stays bit-for-bit identical across shards {1, 2, 4} with
    // the pipelined and lockstep engines alike. Conservation of the killed
    // traffic (`generated == delivered + dropped + outstanding`) is
    // asserted inside the engine on every run.
    use dragonfly_sim::fault::FaultSpecEntry;
    for (idx, routing) in RoutingSpec::paper_lineup().into_iter().enumerate() {
        let mut base = spec(routing, TrafficSpec::UniformRandom, 90 + idx as u64);
        base.faults = vec![FaultSpecEntry::random_global_down(20.0, 0.05, 17)];
        base.series_bin_ns = Some(5_000);
        base.validate().expect("fault schedule compiles");
        let single = run_mode(base.clone(), ShardKind::Single, true);
        assert!(
            single.packets_delivered > 100,
            "{routing:?}: run must complete despite the link loss"
        );
        for shards in [2usize, 4] {
            for pipeline in [true, false] {
                assert_same_report(
                    &single,
                    &run_mode(base.clone(), ShardKind::Fixed(shards), pipeline),
                    &format!("5% link loss {routing:?} shards={shards} pipeline={pipeline}"),
                );
            }
        }
    }
}

#[test]
fn auto_sharding_matches_single_too() {
    // `Auto` resolves to whatever the host offers; the result must not
    // depend on it.
    let base = spec(
        RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
        TrafficSpec::UniformRandom,
        33,
    );
    let single = run_mode(base.clone(), ShardKind::Single, true);
    let auto = run_mode(base, ShardKind::Auto, true);
    assert_same_report(&single, &auto, "auto");
}
