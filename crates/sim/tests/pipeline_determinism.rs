//! Property-based pipelined-determinism stress tests over the *real*
//! routing algorithms and the full spec → report pipeline.
//!
//! `pipeline_differential` (engine crate) pins the mechanism with the
//! cheap test router; this file drives randomly generated
//! `(topology size, traffic pattern, load, seed)` tuples through **UGAL**
//! and **Q-adaptive** — adaptive decisions, per-router RNGs, Q-table
//! updates carried by cross-shard RL feedback — and asserts that every
//! `(shards ∈ {1, 2, 4}, pipeline on/off)` combination reproduces the
//! sequential report bit for bit, every field except wall-clock timing.
//!
//! The generator is a deterministic `proptest`-style harness (no proptest
//! crate in the offline build): a master seed draws each case and every
//! assertion message carries the case tuple, so a failure is immediately
//! reproducible without shrinking.

mod common;

use common::{assert_same_report, run_mode};
use dragonfly_engine::config::ShardKind;
use dragonfly_engine::EngineConfig;
use dragonfly_routing::RoutingSpec;
use dragonfly_sim::spec::ExperimentSpec;
use dragonfly_topology::config::DragonflyConfig;
use dragonfly_traffic::TrafficSpec;
use qadaptive_core::QAdaptiveParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated stress case (everything that varies between runs).
#[derive(Debug, Clone, Copy)]
struct Case {
    topo: (usize, usize, usize),
    traffic: TrafficSpec,
    load: f64,
    seed: u64,
}

fn draw_case(rng: &mut StdRng) -> Case {
    let topo = [(2usize, 4usize, 2usize), (3, 4, 2)][rng.gen_range(0..2usize)];
    let groups = topo.1 * topo.2 + 1;
    let traffic = match rng.gen_range(0..3) {
        0 => TrafficSpec::UniformRandom,
        _ => TrafficSpec::Adversarial {
            shift: 1 + rng.gen_range(0..groups - 1),
        },
    };
    Case {
        topo,
        traffic,
        load: [0.15, 0.3, 0.45][rng.gen_range(0..3usize)],
        seed: rng.gen_range(1..1_000_000),
    }
}

fn spec_for(case: &Case, routing: RoutingSpec) -> ExperimentSpec {
    let (p, a, h) = case.topo;
    ExperimentSpec {
        traffic: case.traffic,
        load: Some(case.load),
        seed: Some(case.seed),
        ..open_loop(DragonflyConfig { p, a, h }.into(), routing)
    }
}

/// The open-loop window every case of this suite runs: 12 µs warmup,
/// 20 µs measured, 4 µs tail, uniform-random at load 0.3 unless overridden.
fn open_loop(topology: dragonfly_topology::TopologySpec, routing: RoutingSpec) -> ExperimentSpec {
    ExperimentSpec {
        routing,
        load: Some(0.3),
        warmup_ns: 12_000,
        measure_ns: 20_000,
        tail_ns: 4_000,
        ..ExperimentSpec::new(topology)
    }
}

/// The property, instantiated per algorithm: pipelined sharded runs of
/// random workloads reproduce the sequential report exactly.
fn property(routing: RoutingSpec, master_seed: u64, cases: usize) {
    let mut gen_rng = StdRng::seed_from_u64(master_seed);
    for case_no in 0..cases {
        let case = draw_case(&mut gen_rng);
        let base = spec_for(&case, routing);
        let reference = run_mode(base.clone(), ShardKind::Single, false);
        assert!(
            reference.packets_delivered > 100,
            "case {case_no} {case:?}: workload too small to pin anything"
        );
        for shards in [2usize, 4] {
            for pipeline in [false, true] {
                let got = run_mode(base.clone(), ShardKind::Fixed(shards), pipeline);
                assert_same_report(
                    &reference,
                    &got,
                    &format!("case {case_no} {case:?} shards={shards} pipeline={pipeline}"),
                );
            }
        }
        // `shards = 1` must ignore the pipeline flag entirely.
        let single_pipelined = run_mode(base, ShardKind::Single, true);
        assert_same_report(
            &reference,
            &single_pipelined,
            &format!("case {case_no} {case:?} single+pipeline"),
        );
    }
}

#[test]
fn ugal_random_workloads_are_pipeline_invariant() {
    property(RoutingSpec::UgalG, 0xA11CE, 3);
}

#[test]
fn qadaptive_random_workloads_are_pipeline_invariant() {
    // Q-adaptive is the adversarial case: every committed hop sends RL
    // feedback upstream (cross-shard for global hops) and Q-table updates
    // do not commute, so any overlap-induced reordering would surface in
    // the latency distribution.
    property(
        RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
        0xBEE5,
        3,
    );
}

#[test]
fn fattree_and_hyperx_workloads_are_pipeline_invariant() {
    // The determinism contract is topology-generic: the same
    // shards × pipeline sweep must hold when the locality domains are
    // fat-tree pods or HyperX rows instead of Dragonfly groups, for both
    // UGAL and Q-adaptive (cross-shard RL feedback over core/column
    // links).
    use dragonfly_topology::{FatTreeConfig, HyperXConfig, TopologySpec};
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
        for (routing, traffic, seed) in [
            (RoutingSpec::UgalG, TrafficSpec::UniformRandom, 404u64),
            (
                RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
                TrafficSpec::Adversarial { shift: 1 },
                405,
            ),
        ] {
            let base = ExperimentSpec {
                traffic,
                seed: Some(seed),
                ..open_loop(topology, routing)
            };
            let reference = run_mode(base.clone(), ShardKind::Single, false);
            assert!(
                reference.packets_delivered > 100,
                "{topology:?}/{routing:?}: workload too small to pin anything"
            );
            for shards in [2usize, 4] {
                for pipeline in [false, true] {
                    let got = run_mode(base.clone(), ShardKind::Fixed(shards), pipeline);
                    assert_same_report(
                        &reference,
                        &got,
                        &format!("{topology:?}/{routing:?} shards={shards} pipeline={pipeline}"),
                    );
                }
            }
        }
    }
}

#[test]
fn closed_loop_workloads_are_pipeline_invariant() {
    // Task wakeups (TaskWake/TaskRecv) must commit identically under the
    // overlapped-window pipeline: the same collectives-and-halo tuples as
    // the shard suite, with the pipeline toggled on top of the shard sweep.
    use dragonfly_topology::{FatTreeConfig, HyperXConfig, Topology, TopologySpec};
    use dragonfly_workload::WorkloadSpec;
    let topologies: Vec<TopologySpec> = vec![
        DragonflyConfig { p: 2, a: 4, h: 2 }.into(),
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
            let base = ExperimentSpec {
                routing: RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
                workload: Some(workload.clone()),
                load: Some(1.0),
                warmup_ns: 0,
                measure_ns: 10_000_000,
                seed: Some(71),
                ..ExperimentSpec::new(topology)
            };
            let reference = run_mode(base.clone(), ShardKind::Single, false);
            assert_eq!(
                reference.ranks_finished,
                topology.build().num_nodes() as u64,
                "{topology:?}/{workload:?}: every rank must finish"
            );
            for shards in [2usize, 4] {
                for pipeline in [false, true] {
                    let got = run_mode(base.clone(), ShardKind::Fixed(shards), pipeline);
                    assert_same_report(
                        &reference,
                        &got,
                        &format!("{topology:?}/{workload:?} shards={shards} pipeline={pipeline}"),
                    );
                }
            }
        }
    }
}

#[test]
fn faulted_workloads_are_pipeline_invariant() {
    // The overlapped-window pipeline may speculate across the very window
    // in which a fault fires; rollback must still reproduce the sequential
    // faulted run exactly, for both open-loop link loss and a mid-collective
    // router kill-and-restore, on all three fabrics.
    use dragonfly_sim::fault::FaultSpecEntry;
    use dragonfly_topology::{FatTreeConfig, HyperXConfig, TopologySpec};
    use dragonfly_workload::WorkloadSpec;
    let topologies: Vec<TopologySpec> = vec![
        DragonflyConfig { p: 2, a: 4, h: 2 }.into(),
        FatTreeConfig { k: 4 }.into(),
        HyperXConfig {
            p: 2,
            rows: 4,
            cols: 4,
        }
        .into(),
    ];
    for topology in topologies {
        // Open-loop: random global-link loss under Q-adaptive.
        let open = ExperimentSpec {
            seed: Some(97),
            series_bin_ns: Some(5_000),
            faults: vec![FaultSpecEntry::random_global_down(18.0, 0.05, 13)],
            ..open_loop(
                topology,
                RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
            )
        };
        open.validate().expect("fault schedule compiles everywhere");
        // Closed-loop: a router dies mid-collective and comes back.
        let mut closed = open.clone();
        closed.routing = RoutingSpec::UgalG;
        closed.workload = Some(WorkloadSpec::AllReduce { messages: 2 });
        closed.load = Some(1.0);
        closed.schedule = None;
        closed.warmup_ns = 0;
        closed.measure_ns = 10_000_000;
        closed.tail_ns = 0;
        closed.faults = vec![
            FaultSpecEntry::router_down(8.0, 2),
            FaultSpecEntry::router_up(40.0, 2),
        ];
        closed
            .validate()
            .expect("fault schedule compiles everywhere");
        for base in [open, closed] {
            let reference = run_mode(base.clone(), ShardKind::Single, false);
            for shards in [2usize, 4] {
                for pipeline in [false, true] {
                    let got = run_mode(base.clone(), ShardKind::Fixed(shards), pipeline);
                    assert_same_report(
                        &reference,
                        &got,
                        &format!(
                            "faulted {topology:?} workload={:?} shards={shards} \
                             pipeline={pipeline}",
                            base.workload
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn auto_sharding_with_pipelining_matches_single() {
    // `Auto` resolves to whatever the host offers; with pipelining on
    // (the default) the result still must not depend on it.
    let case = Case {
        topo: (2, 4, 2),
        traffic: TrafficSpec::Adversarial { shift: 2 },
        load: 0.35,
        seed: 77,
    };
    let base = spec_for(&case, RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()));
    let reference = run_mode(base.clone(), ShardKind::Single, false);
    let auto = run_mode(base, ShardKind::Auto, true);
    assert_same_report(&reference, &auto, "auto+pipeline");
}

#[test]
fn streaming_metrics_and_paged_tables_are_pipeline_invariant() {
    // PR 8's bounded-memory representations must not perturb a single bit
    // of the report: log-binned latency sketches (integer bin merges) and
    // lazily paged Q-tables (forced on by a zero paging threshold) each
    // reproduce the dense/exact sequential run across the full
    // shards × pipeline sweep. `memory_bytes` is deliberately outside the
    // bit-for-bit contract — arena and page-table capacities legitimately
    // vary with the shard count and the storage representation.
    use dragonfly_sim::spec::{MetricsMode, MetricsSpec};
    let run = |spec: &ExperimentSpec, shards: ShardKind, pipeline: bool, threshold: usize| {
        let mut spec = spec.clone();
        spec.engine = Some(EngineConfig {
            qtable_page_rows_threshold: threshold,
            ..Default::default()
        });
        run_mode(spec, shards, pipeline)
    };
    for (routing, seed) in [
        (
            RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
            811u64,
        ),
        (RoutingSpec::QRouting { max_q: 3 }, 812),
    ] {
        let mut base = spec_for(
            &Case {
                topo: (2, 4, 2),
                traffic: TrafficSpec::UniformRandom,
                load: 0.3,
                seed,
            },
            routing,
        );
        base.metrics = Some(MetricsSpec {
            mode: MetricsMode::Streaming,
        });
        // Dense tables (threshold above any table in this tiny topology).
        let reference = run(&base, ShardKind::Single, false, usize::MAX);
        assert!(
            reference.packets_delivered > 100,
            "{routing:?}: workload too small to pin anything"
        );
        assert!(
            reference.memory_bytes > 0,
            "{routing:?}: report must carry the memory rollup"
        );
        for threshold in [usize::MAX, 0] {
            for shards in [1usize, 2, 4] {
                for pipeline in [false, true] {
                    let kind = if shards == 1 {
                        ShardKind::Single
                    } else {
                        ShardKind::Fixed(shards)
                    };
                    let got = run(&base, kind, pipeline, threshold);
                    assert_same_report(
                        &reference,
                        &got,
                        &format!(
                            "{routing:?} paged={} shards={shards} pipeline={pipeline}",
                            threshold == 0
                        ),
                    );
                }
            }
        }
        // The paged representation must actually be cheaper at rest: a
        // freshly thresholded run touches only the rows traffic visited.
        let paged = run(&base, ShardKind::Single, false, 0);
        assert!(paged.memory_bytes > 0, "{routing:?}");
    }
}

#[test]
fn pipeline_flag_round_trips_through_scenario_files() {
    // The spec layer must carry `engine.pipeline` losslessly in both
    // encodings, and files that predate the field must default to `true`.
    let mut spec = spec_for(
        &Case {
            topo: (2, 4, 2),
            traffic: TrafficSpec::UniformRandom,
            load: 0.2,
            seed: 5,
        },
        RoutingSpec::UgalG,
    );
    spec.engine = Some(EngineConfig {
        pipeline: false,
        shards: ShardKind::Fixed(2),
        ..Default::default()
    });
    assert_eq!(ExperimentSpec::from_toml(&spec.to_toml()).unwrap(), spec);
    assert_eq!(ExperimentSpec::from_json(&spec.to_json()).unwrap(), spec);
    // A pre-pipeline scenario file (no `pipeline` key) gets the default.
    let legacy = ExperimentSpec::from_toml(
        "load = 0.2\nwarmup_ns = 5000\nmeasure_ns = 5000\n[topology]\np = 2\na = 4\nh = 2\n\
         [engine]\npacket_bytes = 128\nlink_bytes_per_ns = 4.0\nlocal_latency_ns = 30\n\
         global_latency_ns = 300\nhost_latency_ns = 10\nrouter_latency_ns = 100\n\
         vc_buffer_packets = 20\noutput_queue_packets = 20\nnum_vcs = 5\n\
         shards = { Fixed = 2 }\n",
    )
    .unwrap();
    assert!(
        legacy.engine.unwrap().pipeline,
        "scenario files without the key default to the pipelined engine"
    );
}
