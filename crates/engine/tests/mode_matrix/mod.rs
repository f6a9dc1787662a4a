//! The execution-mode matrix of the engine, driven with scripted traffic,
//! hand-rolled task programs and the cheap test router.
//!
//! Every case of [`cases`] runs in every mode of [`MODES`] and in one split
//! cell (checkpoint in one mode, serde round trip, restore in another), and
//! each run's counters, merged observer, finish time and final canonical
//! checkpoint must equal the case's reference run bit for bit. The split
//! cells rotate through `MODES`, so every mode takes and restores a
//! checkpoint somewhere and every change of shard count occurs.
//!
//! Each case names its [`Slice`]: the `#[test]` of `shard_differential.rs`
//! or `pipeline_differential.rs` that runs it, so the two suites share the
//! case list without running a case twice. The helpers at the end drive
//! their window-loop mechanics tests, which no comparison can see.

use dragonfly_engine::checkpoint::EngineCheckpoint;
use dragonfly_engine::config::ShardKind::{self, Auto, Fixed, Single};
use dragonfly_engine::event::EventKind;
use dragonfly_engine::injector::{EmptyInjector, ScriptedInjector, TrafficInjector};
use dragonfly_engine::observer::CountingObserver;
use dragonfly_engine::testing::MinimalTestRouting;
use dragonfly_engine::time::SimTime;
use dragonfly_engine::{
    CompiledFault, Engine, EngineConfig, FaultOp, FaultSchedule, Injection, NodeProgram, Op,
    ShardDrain, ShardObserver, ShardPlan,
};
use dragonfly_metrics::report::first_tree_difference;
use dragonfly_topology::config::DragonflyConfig;
use dragonfly_topology::ids::{NodeId, RouterId};
use dragonfly_topology::Topology;
use dragonfly_topology::{AnyTopology, Dragonfly, FatTree, FatTreeConfig, HyperX, HyperXConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeSet;

/// One execution mode: `(shards, pipeline)`.
pub type Mode = (ShardKind, bool);

/// Every pair of shard count and grid, plus the three shards the unit
/// tests pin; the first mode is the reference.
const MODES: [Mode; 9] = [
    (Single, false),
    (Single, true),
    (Fixed(2), false),
    (Fixed(2), true),
    (Fixed(4), false),
    (Fixed(4), true),
    (Auto, false),
    (Auto, true),
    (Fixed(3), true),
];

/// The modes case `i`'s split cell checkpoints in and restores in: mode
/// `i mod 9`, restored three modes on (five in every second round).
fn split_modes(i: usize) -> (Mode, Mode) {
    let take = i % MODES.len();
    let step = [3, 5][i / MODES.len() % 2];
    (MODES[take], MODES[(take + step) % MODES.len()])
}

/// Long enough to drain every case.
pub const T_MAX: SimTime = 500_000_000;

/// The test that runs a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// `shard_differential::sharded_runs_are_bit_identical_to_single_shard`
    BitIdentical,
    /// `shard_differential::sharded_runs_are_bit_identical_on_fattree_and_hyperx`
    FatTreeAndHyperX,
    /// `shard_differential::closed_loop_task_programs_are_shard_invariant`
    ProgramsAcrossShards,
    /// `pipeline_differential::random_workloads_are_invariant_across_shards_and_pipelining`
    RandomWorkloads,
    /// `pipeline_differential::closed_loop_task_programs_are_pipeline_invariant`
    ProgramsAcrossGrids,
}

pub enum Traffic {
    Script(Vec<Injection>),
    Programs(Vec<NodeProgram>),
}

struct Case {
    slice: Slice,
    name: String,
    topo: AnyTopology,
    traffic: Traffic,
    faults: FaultSchedule,
    /// Where the split cell cuts; `None` is halfway through the reference
    /// run. The faulted case cuts between the kill and the restore.
    cut: Option<SimTime>,
    /// Whether the cut snapshot holds packets in both phases of the
    /// canonical walk (router buffers, `RouterArrive` events) and in the
    /// NIC backlog, each from at least two shards at `Fixed(4)`, so every
    /// part of the writer reads more than one shard.
    fills_every_walk_phase: bool,
}

impl Case {
    fn new(slice: Slice, name: impl Into<String>, topo: AnyTopology, traffic: Traffic) -> Self {
        Self {
            slice,
            name: name.into(),
            topo,
            traffic,
            faults: FaultSchedule::default(),
            cut: None,
            fills_every_walk_phase: false,
        }
    }
}

/// The traffic shapes the script generator draws.
#[derive(Debug, Clone, Copy)]
pub enum Pattern {
    /// Random distinct src/dst pairs.
    Uniform,
    /// Every node targets a node `shift` locality domains away (the
    /// paper's ADV+i).
    Adversarial(usize),
    /// 20 % of packets converge on one hot node.
    Hotspot,
}

/// `count` packets `gap_ns` apart (0 = one same-tick burst).
pub fn script(
    topo: &AnyTopology,
    pattern: Pattern,
    count: u64,
    gap_ns: u64,
    seed: u64,
) -> Vec<Injection> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = topo.num_nodes();
    let domains = topo.num_domains();
    let per_domain = n / domains;
    let hot = NodeId::from_index(rng.gen_range(0..n));
    (0..count)
        .map(|i| {
            let src = NodeId::from_index(rng.gen_range(0..n));
            let mut dst = match pattern {
                Pattern::Uniform => NodeId::from_index(rng.gen_range(0..n)),
                Pattern::Adversarial(shift) => {
                    let domain = (src.index() / per_domain + shift) % domains;
                    NodeId::from_index(domain * per_domain + rng.gen_range(0..per_domain))
                }
                Pattern::Hotspot if rng.gen_range(0..5) == 0 => hot,
                Pattern::Hotspot => NodeId::from_index(rng.gen_range(0..n)),
            };
            while dst == src {
                dst = NodeId::from_index(rng.gen_range(0..n));
            }
            Injection {
                time: i * gap_ns,
                src,
                dst,
            }
        })
        .collect()
}

pub fn tiny() -> AnyTopology {
    Dragonfly::new(DragonflyConfig::tiny()).into()
}

/// Ten seeded scripts over five fabrics, the three traffic shapes and four
/// injection gaps; a script with self-sends; a router killed and restored
/// under traffic; a congested burst whose cut fills every walk phase; three
/// closed-loop task programs.
fn cases() -> Vec<Case> {
    use Slice::*;
    let dragonfly = |p, a, h| -> AnyTopology {
        Dragonfly::new(DragonflyConfig::new(p, a, h).expect("a valid size")).into()
    };
    let fabrics = [
        dragonfly(2, 4, 2),
        dragonfly(3, 4, 2),
        dragonfly(2, 6, 3),
        FatTree::new(FatTreeConfig::tiny()).into(),
        HyperX::new(HyperXConfig::tiny()).into(),
    ];
    let mut draw = StdRng::seed_from_u64(0xD1FF_E4E7);
    let mut cases: Vec<Case> = (0..10)
        .map(|i| {
            let topo = fabrics[i % fabrics.len()].clone();
            let pattern = match i % 3 {
                0 => Pattern::Uniform,
                1 => Pattern::Adversarial(1 + draw.gen_range(0..topo.num_domains() - 1)),
                _ => Pattern::Hotspot,
            };
            let (count, gap) = (draw.gen_range(400..1_200), [0, 15, 40, 90][i % 4]);
            let traffic = Traffic::Script(script(&topo, pattern, count, gap, draw.gen()));
            let name = format!(
                "draw {i}: {} {pattern:?} {count}×{gap} ns",
                topo.kind_name()
            );
            let slice = [RandomWorkloads, FatTreeAndHyperX][i % fabrics.len() / 3];
            Case::new(slice, name, topo, traffic)
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(17);
    let selfish = (0..1_500)
        .map(|i| Injection {
            time: i * 30,
            src: NodeId::from_index(rng.gen_range(0..72)),
            dst: NodeId::from_index(rng.gen_range(0..72)),
        })
        .collect();
    let name = "uniform with self-sends";
    cases.push(Case::new(
        BitIdentical,
        name,
        tiny(),
        Traffic::Script(selfish),
    ));

    let steady = (0..600)
        .map(|i| {
            let (src, dst) = (i * 7 % 72, (i * 13 + 5) % 72);
            Injection {
                time: i as u64 * 211,
                src: NodeId::from_index(src),
                dst: NodeId::from_index(if dst == src { (dst + 1) % 72 } else { dst }),
            }
        })
        .collect();
    let router_1 = |at_ns, op: fn(RouterId) -> FaultOp| CompiledFault {
        at_ns,
        ops: vec![op(RouterId(1))],
    };
    let blip = FaultSchedule {
        events: vec![
            router_1(30_000, |router| FaultOp::RouterDown { router }),
            router_1(250_000, |router| FaultOp::RouterUp { router }),
        ],
    };
    let name = "router 1 killed and restored";
    cases.push(Case {
        faults: blip,
        cut: Some(90_000),
        ..Case::new(BitIdentical, name, tiny(), Traffic::Script(steady))
    });

    // Every node's traffic four groups on at one packet a nanosecond: by
    // the cut the NICs queue, the routers buffer and links carry packets
    // on every shard of four.
    let burst = script(&tiny(), Pattern::Adversarial(4), 4_000, 1, 5);
    let name = "congested ADV+4 burst";
    cases.push(Case {
        cut: Some(3_000),
        fills_every_walk_phase: true,
        ..Case::new(BitIdentical, name, tiny(), Traffic::Script(burst))
    });

    // Node `i` sends `messages` to node `i + hop`, then receives as many
    // from node `i - hop`.
    fn exchange(i: usize, hop: usize, messages: u32, barrier: bool) -> [Op; 2] {
        let node = |hop| NodeId::from_index((i + hop) % 72);
        let (dst, from) = (node(hop), node(72 - hop));
        [
            Op::Send { dst, messages },
            Op::Recv {
                from,
                messages,
                barrier,
            },
        ]
    }
    let compute = |delay_ns| Op::Compute { delay_ns };
    let phase = |index| Op::Phase { index };
    // Skewed computes put task wakeups at many offsets inside the windows.
    type Program<'a> = (Slice, &'a str, &'a dyn Fn(usize) -> NodeProgram);
    let programs: [Program; 3] = [
        (
            ProgramsAcrossShards,
            "ring, then a pairwise barrier",
            &|i| {
                let skew = compute(50 + (i as u64 % 7) * 10);
                let (ring, pair) = (exchange(i, 1, 2, false), exchange(i, 36, 1, true));
                let tail = [compute(25), phase(1)];
                [&[skew][..], &ring, &[phase(0)], &pair, &tail]
                    .concat()
                    .into()
            },
        ),
        (ProgramsAcrossGrids, "two skewed rounds", &|i| {
            let skew = compute((i as u64 % 11) * 37);
            let (ring, back) = (exchange(i, 1, 2, false), exchange(i, 71, 1, true));
            [&[skew][..], &ring, &[phase(0)], &back, &[phase(1)]]
                .concat()
                .into()
        }),
        (ProgramsAcrossShards, "ring barrier", &|i| {
            [&[compute(50)][..], &exchange(i, 1, 2, true), &[phase(0)]]
                .concat()
                .into()
        }),
    ];
    for (slice, name, program) in programs {
        let traffic = Traffic::Programs((0..72).map(program).collect());
        cases.push(Case::new(slice, name, tiny(), traffic));
    }
    cases
}

pub fn config((shards, pipeline): Mode) -> EngineConfig {
    EngineConfig {
        shards,
        pipeline,
        ..EngineConfig::paper(3)
    }
}

pub fn build<O: ShardObserver>(
    topo: &AnyTopology,
    traffic: &Traffic,
    cfg: EngineConfig,
    observer: O,
) -> Engine<O> {
    let injector: Box<dyn TrafficInjector> = match traffic {
        Traffic::Script(script) => Box::new(ScriptedInjector::new(script.clone())),
        Traffic::Programs(_) => Box::new(EmptyInjector),
    };
    let algo = MinimalTestRouting;
    let mut engine = Engine::new(topo.clone(), cfg, &algo, injector, observer, 42);
    if let Traffic::Programs(programs) = traffic {
        engine.install_workload(programs.clone());
    }
    engine
}

fn start(case: &Case, mode: Mode) -> Engine<CountingObserver> {
    let observer = CountingObserver::default();
    let mut engine = build(&case.topo, &case.traffic, config(mode), observer);
    engine.install_faults(&case.faults);
    if let Fixed(n) = mode.0 {
        assert_eq!(engine.num_shards(), n, "case {}: {mode:?}", case.name);
    }
    engine
}

/// What a run has done by the time it stops, for the comparison.
#[derive(Serialize)]
struct Outcome {
    now: SimTime,
    processed: u64,
    generated: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    retransmits: u64,
    events: u64,
    tasks_finished: u64,
    observer: String,
    checkpoint: EngineCheckpoint,
}

/// `engine`'s outcome, `processed` events in all.
fn outcome(engine: &Engine<CountingObserver>, processed: u64) -> Outcome {
    let stats = engine.stats();
    Outcome {
        now: engine.now(),
        processed,
        generated: stats.generated,
        injected: stats.injected,
        delivered: stats.delivered,
        dropped: stats.dropped,
        retransmits: stats.retransmits,
        events: stats.events,
        tasks_finished: engine.tasks_finished(),
        observer: format!("{:?}", engine.merged_observer()),
        checkpoint: engine.checkpoint(),
    }
}

/// `engine` drained to the end: every packet accounted for, every arena
/// and mailbox empty, at every shard count.
fn drained(case: &Case, cell: &str, mut engine: Engine<CountingObserver>, before: u64) -> Outcome {
    let (_, after) = engine.run_to_drain(T_MAX);
    let stats = engine.stats();
    let empty = |s: &ShardDrain| s.resident == 0 && s.inbound_mail == 0;
    assert!(
        stats.outstanding() == 0 && stats.shards.iter().all(empty),
        "case {}, {cell}: a drain empties every arena and mailbox: {stats:?}",
        case.name
    );
    outcome(&engine, before + after)
}

/// What the reference run must show for the comparisons to bite.
fn assert_bites(case: &Case, reference: &Outcome) {
    let name = &case.name;
    match &case.traffic {
        Traffic::Script(_) if !case.faults.events.is_empty() => {
            assert!(reference.dropped > 0, "{name}: the router kill must drop");
        }
        Traffic::Script(script) => {
            assert_eq!(reference.delivered, script.len() as u64, "{name}: drains");
        }
        Traffic::Programs(programs) => {
            let sends = programs
                .iter()
                .flat_map(NodeProgram::ops)
                .map(|op| match op {
                    Op::Send { messages, .. } => u64::from(messages),
                    _ => 0,
                });
            assert_eq!(reference.delivered, sends.sum::<u64>(), "{name}: drains");
            assert_eq!(reference.tasks_finished, 72, "{name}: every rank finishes");
        }
    }
}

/// Panics naming the case, the cell and where `got` first differs from
/// `want`.
fn assert_same(case: &Case, cell: &str, want: &impl Serialize, got: &impl Serialize) {
    let sides = ("the reference", "this cell");
    if let Some(diff) = first_tree_difference("run", &want.to_value(), &got.to_value(), sides, &[])
    {
        panic!("case {}, {cell}: differs at {diff}", case.name);
    }
}

/// Every case of `slice` runs uninterrupted in the reference mode, then in
/// every mode stopped at the cut — which must find the reference's state —
/// and run on; the split cell restores the take mode's checkpoint in
/// another mode.
pub fn run(slice: Slice) {
    let cases = cases();
    assert!(cases.iter().any(|c| c.slice == slice), "{slice:?}: no case");
    assert!(
        cases.iter().any(|c| c.fills_every_walk_phase),
        "some case's cut must fill every phase of the canonical walk"
    );
    for (i, case) in cases.iter().enumerate().filter(|(_, c)| c.slice == slice) {
        let reference = drained(case, "reference", start(case, MODES[0]), 0);
        assert_bites(case, &reference);
        let cut = case.cut.unwrap_or(reference.now / 2);
        let (take, restore) = split_modes(i);
        let (mut at_cut, mut taken) = (None, None);
        for &mode in &MODES {
            let cell = format!("mode {mode:?}, cut at {cut} ns");
            let mut engine = start(case, mode);
            let before = engine.run_until(cut);
            let at = outcome(&engine, before);
            let (cursor, faults) = (at.checkpoint.shard.fault_cursor, case.faults.events.len());
            assert!(
                engine.has_pending_events() && (faults == 0 || (1..faults).contains(&cursor)),
                "case {}, {cell}: the cut must fall mid-run, inside any fault window",
                case.name
            );
            if case.fills_every_walk_phase && mode.0 == Fixed(4) {
                let phases = walk_phases(&at.checkpoint, &case.topo);
                assert!(
                    phases.iter().all(|shards| shards.len() >= 2),
                    "case {}, {cell}: router buffers, NIC queues and links hold packets \
                     of the shards {phases:?}; each phase must hold some of two or more",
                    case.name
                );
            }
            if mode == take {
                taken = Some((at.checkpoint.clone(), engine.merged_observer(), before));
            }
            match &at_cut {
                Some(want) => assert_same(case, &cell, want, &at),
                None => at_cut = Some(at),
            }
            let got = drained(case, &cell, engine, before);
            assert_same(case, &cell, &reference, &got);
        }

        let (ck, observer, before) = taken.expect("the take mode is in MODES");
        let json = serde_json::to_string(&ck).expect("a checkpoint serializes");
        let back: EngineCheckpoint = serde_json::from_str(&json).expect("and deserializes");
        let cell = format!("cut at {cut} ns in {take:?}, restored in {restore:?}");
        let mut resumed = start(case, restore);
        resumed.restore(&back);
        // A restored engine's first checkpoint is the one it restored.
        let again = resumed.checkpoint();
        assert_same(
            case,
            &format!("{cell}, its first checkpoint"),
            &back,
            &again,
        );
        resumed.seed_observer(observer);
        let got = drained(case, &cell, resumed, before);
        assert_same(case, &cell, &reference, &got);
    }
}

/// The shards of a four-shard plan whose packets a cut snapshot holds, per
/// place: router buffers, the NIC backlog, `RouterArrive` events.
fn walk_phases(ck: &EngineCheckpoint, topo: &AnyTopology) -> [BTreeSet<usize>; 3] {
    let cfg = config((Fixed(4), true));
    let lookahead = topo.min_cross_domain_latency(cfg.local_latency_ns, cfg.global_latency_ns);
    let plan = ShardPlan::new(topo, 4, lookahead);
    let shard = &ck.shard;
    let of_node = |n: usize| plan.shard_of_router(topo.router_of_node(NodeId::from_index(n)));
    let routers = (shard.routers.iter().enumerate())
        .filter(|(_, r)| r.buffered_packets() > 0)
        .map(|(r, _)| plan.shard_of_router(RouterId::from_index(r)));
    let nics = (shard.nics.iter().enumerate())
        .filter(|(_, nic)| nic.queued > 0)
        .map(|(n, _)| of_node(n));
    let links = shard.queue.events.iter().filter_map(|ev| match ev.kind {
        EventKind::RouterArrive { router, .. } => Some(plan.shard_of_router(router)),
        _ => None,
    });
    [routers.collect(), nics.collect(), links.collect()]
}

/// One engine in `mode` stepped through `run_until` windows ending at
/// `cuts` processes what one engine drained in a single call does.
pub fn assert_split_windows_match_one_drain(mode: Mode, cuts: &[SimTime]) {
    let traffic = Traffic::Script(script(&tiny(), Pattern::Uniform, 900, 55, 7));
    let mut stepped = build(&tiny(), &traffic, config(mode), CountingObserver::default());
    let processed: u64 = cuts.iter().map(|&t| stepped.run_until(t)).sum();
    let mut drained = build(&tiny(), &traffic, config(mode), CountingObserver::default());
    let (_, one_shot) = drained.run_to_drain(100_000_000);
    assert_eq!(processed, one_shot, "{mode:?}: split windows vs one drain");
    assert_eq!(
        stepped.stats().events,
        one_shot,
        "{mode:?}: stats count every pop"
    );
    assert_eq!(stepped.stats(), drained.stats(), "{mode:?}");
    let observers = (stepped.merged_observer(), drained.merged_observer());
    assert_eq!(observers.0, observers.1, "{mode:?}");
}

/// The arena-segment and `ShardDrain` contract at four shards on one grid:
/// a packet lives in exactly one shard's arena (packets cross shards by
/// value), so `sum(resident) + sum(inbound_mail) == outstanding` at every
/// stop, and a run returns with no mail in the grid.
pub fn assert_drain_accounting(pipeline: bool) {
    let traffic = Traffic::Script(script(&tiny(), Pattern::Adversarial(4), 2_000, 12, 31));
    let cfg = config((Fixed(4), pipeline));
    let mut engine = build(&tiny(), &traffic, cfg, CountingObserver::default());
    for t_end in [400u64, 1_500, 3_000, 7_777, 15_000, 24_000] {
        engine.run_until(t_end);
        let stats = engine.stats();
        let resident: u64 = stats.shards.iter().map(|s| s.resident).sum();
        let delivered: u64 = stats.shards.iter().map(|s| s.delivered).sum();
        let held = (engine.nic_backlog() + engine.fabric_occupancy()) as u64;
        // Residency + transit is what is outstanding, no mail is left in
        // the grid, and the shards decompose the totals.
        let (mail, outstanding) = (stats.in_mailboxes(), stats.outstanding());
        let at = format!("pipeline={pipeline} t={t_end}");
        assert_eq!((resident + mail, mail), (outstanding, 0), "{at}");
        assert_eq!(delivered, stats.delivered, "{at}");
        assert!(
            outstanding > 0,
            "{at}: the cut must catch packets in flight"
        );
        assert!(held <= resident, "{at}: resident covers NICs and routers");
    }
    engine.run_to_drain(T_MAX);
    let stats = engine.stats();
    assert_eq!(stats.delivered, 2_000, "pipeline={pipeline}");
    assert_eq!((stats.in_mailboxes(), stats.outstanding()), (0, 0));
    for (i, shard) in stats.shards.iter().enumerate() {
        assert_eq!(shard.resident, 0, "shard {i}: every arena slot recycled");
        assert!(shard.events > 0 && shard.delivered > 0, "shard {i} idled");
    }
}
