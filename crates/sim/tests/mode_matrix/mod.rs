//! The execution-mode matrix of the full spec → report pipeline: the
//! real routing algorithms, pattern injectors, closed-loop workloads,
//! fault schedules and metrics collectors.
//!
//! Every case of [`cases`] runs in every mode of [`MODES`] and in one split
//! cell (snapshot in one mode, resume in another), and each run's `engine`
//! snapshot section at the case's cut, report, final `engine` section and
//! time series must equal the case's reference run bit for bit. `MODES`
//! covers every pair of axis values, and the split cells rotate through it
//! so that every mode takes and resumes a snapshot somewhere and every
//! change of shard count occurs.
//!
//! Each case names its [`Slice`]: the `#[test]` of `shard_determinism.rs`,
//! `pipeline_determinism.rs` or `checkpoint_resume.rs` that runs it, so the
//! three suites share the case list without running a case twice.

use crate::common::{self, through_the_file_encoding};
use dragonfly_engine::checkpoint::{AgentCheckpoint, EngineCheckpoint};
use dragonfly_engine::config::ShardKind::{self, Auto, Fixed, Single};
use dragonfly_engine::EngineConfig;
use dragonfly_metrics::report::{first_tree_difference, SimulationReport};
use dragonfly_routing::RoutingSpec;
use dragonfly_sim::builder::Simulation;
use dragonfly_sim::checkpoint::RunCheckpoint;
use dragonfly_sim::fault::FaultSpecEntry;
use dragonfly_sim::spec::{ExperimentSpec, MetricsMode, MetricsSpec};
use dragonfly_topology::config::DragonflyConfig;
use dragonfly_topology::{FatTreeConfig, HyperXConfig, TopologySpec};
use dragonfly_traffic::TrafficSpec;
use dragonfly_workload::WorkloadSpec;
use qadaptive_core::QAdaptiveParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

/// `qtable_page_rows_threshold` values: every table dense, every table paged.
const DENSE: usize = usize::MAX;
const PAGED: usize = 0;

/// One execution mode: `(shards, pipeline, qtable_page_rows_threshold)`.
type Mode = (ShardKind, bool, usize);

/// Every pair of axis values once (shards × pipeline, shards × paging,
/// pipeline × paging); the first mode is the reference.
const MODES: [Mode; 8] = [
    (Single, false, DENSE),
    (Single, true, PAGED),
    (Fixed(2), false, PAGED),
    (Fixed(2), true, DENSE),
    (Fixed(4), false, DENSE),
    (Fixed(4), true, PAGED),
    (Auto, false, PAGED),
    (Auto, true, DENSE),
];

/// The modes case `i`'s split cell snapshots in and resumes in: mode
/// `i mod 8`, resumed three modes on (five in every second round of eight),
/// which over sixteen cases is every change of shard count both ways.
fn split_modes(i: usize) -> (Mode, Mode) {
    let take = i % MODES.len();
    let step = [3, 5][i / MODES.len() % 2];
    (MODES[take], MODES[(take + step) % MODES.len()])
}

fn label((shards, pipeline, paging): Mode) -> String {
    let paging = if paging == PAGED { "paged" } else { "dense" };
    format!("{shards:?}/pipeline={pipeline}/{paging}")
}

fn spec_in(spec: &ExperimentSpec, (shards, pipeline, paging): Mode) -> ExperimentSpec {
    let engine = EngineConfig {
        shards,
        pipeline,
        qtable_page_rows_threshold: paging,
        ..spec.engine.unwrap_or_default()
    };
    ExperimentSpec {
        engine: Some(engine),
        ..spec.clone()
    }
}

/// The test that runs a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// `shard_determinism::ugal_workload_is_shard_count_invariant`
    UgalOnDragonfly,
    /// `shard_determinism::qadaptive_workload_is_shard_count_invariant`
    QAdaptiveOnDragonfly,
    /// `shard_determinism::streaming_sketch_is_shard_count_invariant`
    StreamingSketch,
    /// `shard_determinism::fattree_and_hyperx_workloads_are_shard_count_invariant`
    FatTreeAndHyperXUniform,
    /// `shard_determinism::closed_loop_workloads_are_shard_count_invariant`
    AllReduce,
    /// `shard_determinism::faulted_workloads_are_shard_count_invariant`
    OpenLoopFaults,
    /// `shard_determinism::five_percent_link_loss_survives_all_six_algorithms`
    LinkLossLineup,
    /// `shard_determinism::auto_sharding_matches_single_too`
    AutoSharding,
    /// `pipeline_determinism::ugal_random_workloads_are_pipeline_invariant`
    DrawnUgal,
    /// `pipeline_determinism::qadaptive_random_workloads_are_pipeline_invariant`
    DrawnQAdaptive,
    /// `pipeline_determinism::fattree_and_hyperx_workloads_are_pipeline_invariant`
    FatTreeAndHyperXAdversarial,
    /// `pipeline_determinism::closed_loop_workloads_are_pipeline_invariant`
    HaloAndBarrier,
    /// `pipeline_determinism::faulted_workloads_are_pipeline_invariant`
    ClosedLoopFaults,
    /// `pipeline_determinism::auto_sharding_with_pipelining_matches_single`
    AutoShardingPipelined,
    /// `pipeline_determinism::streaming_metrics_and_paged_tables_are_pipeline_invariant`
    StreamingQRouting,
    /// `checkpoint_resume::openloop_ugal_resume_is_bit_identical_across_faults`
    ResumeUgalFaults,
    /// `checkpoint_resume::qadaptive_learning_state_survives_resume`
    ResumeQAdaptive,
    /// `checkpoint_resume::closedloop_allreduce_resume_preserves_retransmit_state`
    ResumeRetransmits,
    /// `checkpoint_resume::streaming_sketch_and_paged_tables_survive_resume`
    ResumeStreaming,
    /// `checkpoint_resume::sharded_pipelined_checkpoint_resumes_at_any_shard_count`
    ResumeBeforeTheKill,
    /// `checkpoint_resume::sharded_qadaptive_checkpoint_resumes_across_modes`
    ResumeQAdaptiveOnHyperX,
    /// `checkpoint_resume::sharded_checkpoints_are_fabric_generic`
    ResumeOnFatTreeAndHyperX,
    /// `checkpoint_resume::sharded_closedloop_resume_preserves_midcollective_state`
    ResumeMidCollective,
    /// `checkpoint_resume::a_sharded_snapshot_is_the_single_shard_snapshot`
    CongestedSnapshot,
    /// `checkpoint_resume::snapshot_restore_snapshot_is_a_fixpoint`
    LateCongestedSnapshot,
    /// `checkpoint_resume::a_looped_job_resumes_mid_loop`
    ResumeMidLoop,
}

struct Case {
    slice: Slice,
    name: String,
    spec: ExperimentSpec,
    /// Where every mode stops for a snapshot: inside the fault window of a
    /// faulted case, else mid-run.
    cut_ns: u64,
}

fn open_loop(topology: TopologySpec, routing: RoutingSpec, traffic: TrafficSpec) -> ExperimentSpec {
    ExperimentSpec {
        routing,
        traffic,
        load: Some(0.3),
        warmup_ns: 8_000,
        measure_ns: 12_000,
        tail_ns: 3_000,
        ..ExperimentSpec::new(topology)
    }
}

fn closed_loop(
    topology: TopologySpec,
    routing: RoutingSpec,
    workload: &WorkloadSpec,
) -> ExperimentSpec {
    ExperimentSpec {
        routing,
        workload: Some(workload.clone()),
        load: Some(1.0),
        warmup_ns: 0,
        measure_ns: 10_000_000,
        ..ExperimentSpec::new(topology)
    }
}

/// Link loss, then a router killed and restored 5 µs later.
fn open_faults() -> Vec<FaultSpecEntry> {
    vec![
        FaultSpecEntry::random_global_down(10.0, 0.05, 7),
        FaultSpecEntry::router_down(13.0, 1),
        FaultSpecEntry::router_up(18.0, 1),
    ]
}

/// Between the kill and the restore of [`open_faults`].
const OPEN_FAULTS_CUT_NS: u64 = 15_000;

/// Mid-collective: every closed-loop case here runs for 2.4 µs or more.
const CLOSED_LOOP_CUT_NS: u64 = 1_500;

/// Mid-loop: the looped case runs twelve iterations in 66 µs, so this is
/// in the fourth.
const MID_LOOP_CUT_NS: u64 = 20_000;

/// The case list: the three fabrics × UGAL-G and Q-adaptive × open loop
/// (UR, ADV), closed loop (all-reduce, halo + barrier) and faults (link
/// loss and a router kill, open and closed loop); the paper lineup under
/// 5 % link loss; streaming metrics; a congested cut; seeded draws; the
/// workloads of four tests that no case above fits; last, a looped job.
fn cases() -> Vec<Case> {
    use Slice::*;
    let qadp = RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056());
    let ur = TrafficSpec::UniformRandom;
    let allreduce = WorkloadSpec::AllReduce { messages: 2 };
    let halo = WorkloadSpec::Sequence(vec![
        WorkloadSpec::HaloExchange {
            phases: 2,
            messages: 2,
            compute_ns: 100,
        },
        WorkloadSpec::Barrier,
    ]);
    let fabrics: [TopologySpec; 3] = [
        DragonflyConfig::tiny().into(),
        FatTreeConfig { k: 4 }.into(),
        HyperXConfig {
            p: 2,
            rows: 4,
            cols: 4,
        }
        .into(),
    ];
    let mut cases = Vec::new();
    let mut add = |slice, spec: ExperimentSpec, cut_ns: Option<u64>| {
        let i = cases.len();
        let name = format!("#{i} {}", spec.label());
        let seed = spec.seed.or(Some(100 + i as u64));
        let spec = ExperimentSpec { seed, ..spec };
        spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let cut_ns = cut_ns.unwrap_or(spec.total_ns() / 2);
        cases.push(Case {
            slice,
            name,
            spec,
            cut_ns,
        });
    };
    // Indexed [fabric][routing] (the open-loop ones on a Dragonfly by
    // [routing][traffic]).
    let dragonfly_open = [[UgalOnDragonfly; 2], [AutoSharding, QAdaptiveOnDragonfly]];
    let faulted_open = [
        [ResumeUgalFaults, ResumeQAdaptive],
        [ResumeOnFatTreeAndHyperX, OpenLoopFaults],
        [ResumeOnFatTreeAndHyperX, ResumeQAdaptiveOnHyperX],
    ];
    let faulted_closed = [ResumeRetransmits, ClosedLoopFaults, ResumeMidCollective];
    for (f, fabric) in fabrics.into_iter().enumerate() {
        for (r, routing) in [RoutingSpec::UgalG, qadp].into_iter().enumerate() {
            for (t, traffic) in [ur, TrafficSpec::Adversarial { shift: 1 }]
                .into_iter()
                .enumerate()
            {
                let other = [FatTreeAndHyperXUniform, FatTreeAndHyperXAdversarial][t];
                let slice = if f == 0 { dragonfly_open[r][t] } else { other };
                add(slice, open_loop(fabric, routing, traffic), None);
            }
            for (slice, workload) in [(AllReduce, &allreduce), (HaloAndBarrier, &halo)] {
                let spec = closed_loop(fabric, routing, workload);
                add(slice, spec, Some(CLOSED_LOOP_CUT_NS));
            }
            let faulted = ExperimentSpec {
                faults: open_faults(),
                series_bin_ns: Some(5_000),
                ..open_loop(fabric, routing, ur)
            };
            add(faulted_open[f][r], faulted, Some(OPEN_FAULTS_CUT_NS));
        }
        let killed = ExperimentSpec {
            faults: vec![
                FaultSpecEntry::router_down(2.0, 2),
                FaultSpecEntry::router_up(8.0, 2),
            ],
            ..closed_loop(fabric, RoutingSpec::UgalG, &allreduce)
        };
        add(faulted_closed[f], killed, Some(5_000));
    }
    for routing in RoutingSpec::paper_lineup() {
        let lossy = ExperimentSpec {
            faults: vec![FaultSpecEntry::random_global_down(10.0, 0.05, 17)],
            series_bin_ns: Some(5_000),
            ..open_loop(fabrics[0], routing, ur)
        };
        add(LinkLossLineup, lossy, Some(OPEN_FAULTS_CUT_NS));
    }
    let metrics = Some(MetricsSpec {
        mode: MetricsMode::Streaming,
    });
    let qrouting = RoutingSpec::QRouting { max_q: 3 };
    let streamed = ExperimentSpec {
        metrics,
        ..open_loop(fabrics[0], qrouting, ur)
    };
    add(StreamingQRouting, streamed, None);
    let sketched = ExperimentSpec {
        metrics,
        faults: open_faults(),
        series_bin_ns: Some(5_000),
        ..open_loop(fabrics[0], qadp, ur)
    };
    add(ResumeStreaming, sketched, Some(OPEN_FAULTS_CUT_NS));
    let congested = common::congested_spec();
    add(CongestedSnapshot, congested, Some(common::CONGESTED_CUT_NS));
    let mut draw = StdRng::seed_from_u64(0xA11CE);
    for (slice, routing) in [
        (DrawnUgal, RoutingSpec::UgalG),
        (DrawnQAdaptive, qadp),
        (DrawnUgal, RoutingSpec::UgalG),
        (DrawnQAdaptive, qadp),
    ] {
        let (p, a, h) = [(2, 4, 2), (3, 4, 2)][draw.gen_range(0..2usize)];
        let traffic = match draw.gen_range(0..3) {
            0 => TrafficSpec::UniformRandom,
            _ => TrafficSpec::Adversarial {
                shift: 1 + draw.gen_range(0..a * h),
            },
        };
        let spec = ExperimentSpec {
            load: Some([0.15, 0.3, 0.45][draw.gen_range(0..3usize)]),
            seed: Some(draw.gen_range(1..1_000_000)),
            ..open_loop(DragonflyConfig { p, a, h }.into(), routing, traffic)
        };
        add(slice, spec, None);
    }
    let streamed = ExperimentSpec {
        metrics,
        ..open_loop(fabrics[0], qadp, ur)
    };
    add(StreamingSketch, streamed, None);
    let adv2 = ExperimentSpec {
        load: Some(0.35),
        ..open_loop(fabrics[0], qadp, TrafficSpec::Adversarial { shift: 2 })
    };
    add(AutoShardingPipelined, adv2, None);
    let faulted = ExperimentSpec {
        faults: open_faults(),
        series_bin_ns: Some(5_000),
        ..open_loop(fabrics[0], RoutingSpec::UgalG, ur)
    };
    // Between the link loss and the router kill.
    add(ResumeBeforeTheKill, faulted, Some(11_000));
    let congested = common::congested_spec();
    add(LateCongestedSnapshot, congested, Some(7_500));
    // A loop with a loop unrolled in its body, three phases an iteration:
    // the cut lands mid-loop, and the phases pass the 32 slots a report
    // keeps.
    let looped = WorkloadSpec::Repeat {
        times: 12,
        body: Box::new(WorkloadSpec::Sequence(vec![
            WorkloadSpec::Repeat {
                times: 2,
                body: Box::new(WorkloadSpec::HaloExchange {
                    phases: 1,
                    messages: 2,
                    compute_ns: 100,
                }),
            },
            allreduce.clone(),
        ])),
    };
    let spec = closed_loop(fabrics[0], qadp, &looped);
    add(ResumeMidLoop, spec, Some(MID_LOOP_CUT_NS));
    cases
}

/// What a case must show for its comparisons to bite.
fn assert_bites(case: &Case, report: &SimulationReport) {
    let spec = &case.spec;
    let closed = spec.workload.is_some();
    let killed = spec.faults.iter().any(|f| f.router.is_some());
    let nodes = spec.topology.num_nodes() as u64;
    let bites = [
        closed || report.packets_delivered > 100,
        !closed || report.ranks_finished == nodes,
        !killed || report.dropped_packets > 0,
        !(killed && closed) || report.retransmits > 0,
        spec.metrics.is_none() || report.memory_bytes > 0,
    ];
    let what = "deliver over 100 packets, finish every rank, drop packets at the killed \
                router, resend what it dropped, report its memory";
    let name = &case.name;
    assert!(
        bites.iter().all(|&b| b),
        "{name}: {bites:?} — the reference run must {what}"
    );
}

/// What a run leaves behind for the comparison.
struct Outcome {
    report: SimulationReport,
    engine: Value,
    series: Value,
    /// Whether packets went from shard to shard.
    crossed_shards: bool,
}

/// `engine` with every paged Q-table spelled out whole: a row it never
/// wrote holds its initial value, which `init` (the agents of a dense
/// engine before any event) holds.
fn spelled_dense(mut engine: EngineCheckpoint, init: &[AgentCheckpoint]) -> EngineCheckpoint {
    for (agent, init) in engine.shard.agents.iter_mut().zip(init) {
        if agent.q_rows.is_empty() && agent.q_values.len() == init.q_values.len() {
            continue;
        }
        let width = (agent.q_values.len() / agent.q_rows.len().max(1)).max(1);
        let mut values = init.q_values.clone();
        for (&row, written) in agent.q_rows.iter().zip(agent.q_values.chunks(width)) {
            values[row as usize * width..][..width].copy_from_slice(written);
        }
        (agent.q_values, agent.q_rows) = (values, Vec::new());
    }
    engine
}

fn finish(mut sim: Simulation, end_ns: u64, init: &[AgentCheckpoint]) -> Outcome {
    sim.advance_to(end_ns);
    let engine = sim.snapshot().engine;
    Outcome {
        report: sim.report(),
        engine: spelled_dense(engine, init).to_value(),
        crossed_shards: sim.memory_breakdown().largest_mail_window > 0,
        series: sim.into_series().to_value(),
    }
}

/// A snapshot as the comparison sees it, paged tables spelled out.
fn spelled(ck: &RunCheckpoint, init: &[AgentCheckpoint]) -> Value {
    let engine = spelled_dense(ck.engine.clone(), init);
    RunCheckpoint {
        engine,
        ..ck.clone()
    }
    .to_value()
}

const SIDES: (&str, &str) = ("the reference", "this cell");

/// Where `got` first differs from the reference: report, then final
/// `engine` snapshot section, then time series.
fn difference(reference: &Outcome, got: &Outcome) -> Option<String> {
    (reference.report.first_difference(&got.report))
        .or_else(|| first_tree_difference("engine", &reference.engine, &got.engine, SIDES, &[]))
        .or_else(|| first_tree_difference("series", &reference.series, &got.series, SIDES, &[]))
}

/// Panics naming the case, the cell and the difference, if there is one.
fn assert_none(case: &Case, cell: &str, diff: Option<String>) {
    if let Some(diff) = diff {
        panic!("case {}, {cell}: differs at {diff}", case.name);
    }
}

/// Every case of `slice` runs uninterrupted in the reference mode, then in
/// every mode stopped at the cut for a snapshot — whose `engine` section
/// must be the reference mode's — and run on; the split cell resumes the
/// take mode's snapshot in another mode.
pub fn run(slice: Slice) {
    let cases = cases();
    assert!(cases.iter().any(|c| c.slice == slice), "{slice:?}: no case");
    for (i, case) in cases.iter().enumerate().filter(|(_, c)| c.slice == slice) {
        let (end, cut_ns) = (case.spec.total_ns(), case.cut_ns);
        let start = |mode| {
            Simulation::start(&spec_in(&case.spec, mode))
                .unwrap_or_else(|e| panic!("case {}: {e}", case.name))
        };
        let mut sim = start(MODES[0]);
        let init = sim.snapshot().engine.shard.agents;
        let reference = finish(sim, end, &init);
        assert_bites(case, &reference.report);
        let (take, resume) = split_modes(i);
        let (mut at_cut, mut taken) = (None, None);
        for &mode in &MODES {
            let cell = format!("mode {}, cut at {cut_ns} ns", label(mode));
            let mut sim = start(mode);
            assert!(
                sim.advance_to(cut_ns),
                "case {}, {cell}: not mid-run",
                case.name
            );
            // The engine section is canonical (the collector's sample order
            // follows the shards; the report it yields is compared).
            let snapshot = sim.snapshot();
            let engine = spelled_dense(snapshot.engine.clone(), &init).to_value();
            match &at_cut {
                Some(want) => {
                    let diff =
                        first_tree_difference("engine at the cut", want, &engine, SIDES, &[]);
                    assert_none(case, &cell, diff);
                }
                None => at_cut = Some(engine),
            }
            if mode == take {
                taken = Some(snapshot);
            }
            let got = finish(sim, end, &init);
            let sharded = mode.0.resolve(case.spec.topology.num_domains(), 1) > 1;
            assert_eq!(got.crossed_shards, sharded, "case {}: {cell}", case.name);
            assert_none(case, &cell, difference(&reference, &got));
        }

        let taken = through_the_file_encoding(&taken.expect("the take mode is in MODES"));
        let cell = format!(
            "cut at {cut_ns} ns in {}, resumed in {}",
            label(take),
            label(resume)
        );
        let mut resumed = Simulation::resume(&spec_in(&case.spec, resume), &taken)
            .unwrap_or_else(|e| panic!("case {}, {cell}: {e}", case.name));
        // A resumed run's first snapshot is the one it resumed from, but for
        // the spec, which names the mode.
        let (taken, again) = (spelled(&taken, &init), spelled(&resumed.snapshot(), &init));
        let sides = ("the snapshot", "its resumed run's");
        let diff = first_tree_difference("snapshot", &taken, &again, sides, &["spec"]);
        assert_none(case, &cell, diff);
        let got = finish(resumed, end, &init);
        assert_none(case, &cell, difference(&reference, &got));
    }
}
