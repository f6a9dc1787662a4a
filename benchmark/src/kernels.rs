//! Replay kernels: public functions of the layers timed stand-alone on
//! inputs shaped like the workloads, nanoseconds per call. Multiplied by how
//! often a run makes the call, each gives an estimated share of `run_s`;
//! what the shares leave over is `engine.unattributed_share`.

use dragonfly_engine::config::EngineConfig;
use dragonfly_engine::event::{event_key, EventKind, EventQueue, Scheduler};
use dragonfly_engine::injector::TrafficInjector;
use dragonfly_engine::routing::{FeedbackMsg, RouterAgent, RoutingAlgorithm};
use dragonfly_metrics::latency::LatencyStats;
use dragonfly_sim::injector::PatternInjector;
use dragonfly_topology::config::DragonflyConfig;
use dragonfly_topology::ids::{GroupId, NodeId, Port, RouterId};
use dragonfly_topology::{AnyTopology, Topology, TopologySpec};
use dragonfly_traffic::schedule::LoadSchedule;
use dragonfly_traffic::TrafficSpec;
use qadaptive_core::init::{init_two_level_paged, init_two_level_table};
use qadaptive_core::paged::PAGE_ROWS;
use qadaptive_core::table::QValueTable;
use qadaptive_core::{HystereticLearner, QAdaptiveParams, QAdaptiveRouting};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Calls per kernel, except where a call allocates.
const CALLS: u64 = 1 << 20;

/// Nanoseconds per call of each kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelNs {
    pub queue_push_pop: f64,
    pub event_key: f64,
    pub dense_decide: f64,
    pub dense_update: f64,
    pub agent_feedback_dense: f64,
    pub agent_feedback_paged: f64,
    pub paged_read_untouched: f64,
    pub paged_first_write: f64,
    /// Heap growth of the table per first write, in bytes.
    pub paged_first_write_bytes: f64,
    pub paged_warm_update: f64,
    pub minimal_port_1056: f64,
    pub minimal_port_110k: f64,
    pub next_dest_ur: f64,
    pub next_dest_adv: f64,
    pub injector_next: f64,
    pub record_exact: f64,
    pub record_streaming: f64,
}

fn per_call_ns(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..calls {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// A cheap deterministic stream for kernel inputs.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

fn dragonfly(p: usize, a: usize, h: usize) -> AnyTopology {
    TopologySpec::from(DragonflyConfig { p, a, h }).build()
}

/// Hold model: the queue keeps `pending` events; each call pops the
/// earliest and pushes one a link, router or serialisation latency later.
fn queue_push_pop(cfg: &EngineConfig, entities: usize, pending: usize) -> f64 {
    let deltas = [
        cfg.local_latency_ns,
        cfg.global_latency_ns,
        cfg.router_latency_ns,
        cfg.host_latency_ns,
        cfg.serialization_ns(),
    ];
    let mut x = 7u64;
    let kind = |x: &mut u64| EventKind::SwitchAttempt {
        router: RouterId((lcg(x) % entities as u64) as u32),
        port: Port((lcg(x) % 16) as u16),
        vc: (lcg(x) % 4) as u8,
    };
    let mut queue = EventQueue::for_config_with_entities(cfg, entities);
    for _ in 0..pending.max(1) {
        let at = lcg(&mut x) % cfg.global_latency_ns.max(1);
        queue.push(at, kind(&mut x));
    }
    per_call_ns(CALLS, |i| {
        let event = queue.pop().expect("the hold model never drains");
        let delta = deltas[(i % deltas.len() as u64) as usize].max(1);
        queue.push(event.time + delta, kind(&mut x));
    })
}

fn event_key_ns() -> f64 {
    let kinds = [
        EventKind::NicCredit { node: NodeId(733) },
        EventKind::SwitchAttempt {
            router: RouterId(201),
            port: Port(9),
            vc: 2,
        },
        EventKind::CreditArrive {
            router: RouterId(90),
            port: Port(3),
            vc: 1,
        },
        EventKind::OutputAttempt {
            router: RouterId(17),
            port: Port(11),
        },
    ];
    per_call_ns(CALLS, |i| {
        black_box(event_key(black_box(&kinds[(i % 4) as usize])));
    })
}

/// A routing decision's reads: the row's best column, then every column.
fn decision_burst(table: &dyn QValueTable, row: usize) {
    let (best, _) = table.best_in_row(black_box(row));
    let mut sum = 0.0;
    for c in 0..table.columns() {
        sum += table.get(row, c);
    }
    black_box((best, sum));
}

/// One hop's learning step on a bare table.
fn update(table: &mut dyn QValueTable, learner: &HystereticLearner, row: usize, col: usize) {
    let q = table.get(row, col);
    table.set(row, col, learner.update(q, 160.0, black_box(900.0)));
}

fn feedback_ns(topo: &AnyTopology, cfg: &EngineConfig, hot_domains: u64) -> f64 {
    let router = RouterId(0);
    let mut agent: Box<dyn RouterAgent> =
        QAdaptiveRouting::new(QAdaptiveParams::paper_1056()).make_agent(topo, cfg, router, 1);
    let (hosts, fabric) = (topo.host_ports(router), topo.fabric_ports(router));
    let msg = |i: u64| {
        // Domains other than the agent's own, the rows feedback reaches.
        let domain = 1 + (i % hot_domains) as usize % (topo.num_domains() - 1);
        FeedbackMsg {
            packet_id: i,
            src: NodeId(0),
            dst: NodeId(0),
            dst_router: RouterId(0),
            dst_group: GroupId::from_index(domain),
            src_slot: (i % hosts as u64) as u8,
            port: Port((hosts + (i as usize / 7) % fabric) as u16),
            reward_ns: 160.0,
            downstream_estimate_ns: 900.0,
        }
    };
    // Materialise the rows first: this kernel is the warm path.
    for i in 0..hot_domains * hosts as u64 * 7 {
        agent.feedback(&msg(i));
    }
    per_call_ns(CALLS, |i| agent.feedback(black_box(&msg(i))))
}

fn minimal_port_ns(topo: &AnyTopology) -> f64 {
    let routers = topo.num_routers() as u64;
    let mut x = 3u64;
    let pairs: Vec<(RouterId, RouterId)> = (0..4096)
        .map(|_| {
            (
                RouterId((lcg(&mut x) % routers) as u32),
                RouterId((lcg(&mut x) % routers) as u32),
            )
        })
        .collect();
    per_call_ns(CALLS, |i| {
        let (from, to) = pairs[(i % 4096) as usize];
        black_box(topo.minimal_port(black_box(from), to));
    })
}

fn next_dest_ns(topo: &AnyTopology, traffic: TrafficSpec) -> f64 {
    let mut pattern = traffic.build(topo, 5);
    let mut rng = StdRng::seed_from_u64(9);
    let nodes = topo.num_nodes() as u64;
    per_call_ns(CALLS, |i| {
        black_box(pattern.destination(NodeId((i % nodes) as u32), &mut rng));
    })
}

/// The injector drained stand-alone over a schedule of about [`CALLS`]
/// messages at half load on the 1,056-node system.
fn injector_next_ns(topo: &AnyTopology, cfg: &EngineConfig) -> f64 {
    let load = 0.5;
    let end_ns = (CALLS as f64 * cfg.interarrival_ns(load) / topo.num_nodes() as f64) as u64;
    let mut injector = PatternInjector::new(
        topo,
        cfg,
        TrafficSpec::UniformRandom.build(topo, 5),
        LoadSchedule::constant(load),
        end_ns,
        9,
    );
    let started = Instant::now();
    while let Some(injection) = injector.next_injection() {
        black_box(injection);
    }
    started.elapsed().as_nanos() as f64 / injector.generated().max(1) as f64
}

fn record_ns(mut stats: LatencyStats) -> f64 {
    let mut x = 11u64;
    per_call_ns(CALLS, |_| stats.record(600 + lcg(&mut x) % 2400))
}

/// What decides which kernels a workload's shares of `run_s` use; the
/// others are not run and report 0.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Routers plus nodes: the pre-sizing of the queue's hold model.
    pub entities: usize,
    /// Events the workload had pending at its checkpoint: the hold model's
    /// population.
    pub pending_events: usize,
    /// Routed by Q-adaptive.
    pub learning: bool,
    /// The engine's own rule chose paged Q-tables.
    pub paged: bool,
    /// The 110,976-node system, not the 1,056-node one.
    pub large: bool,
    pub open_loop: bool,
    pub adversarial: bool,
    /// Streaming latency sketch, not exact samples.
    pub streaming: bool,
}

/// Time the kernels `shape` calls for.
pub fn run(shape: &Shape) -> KernelNs {
    let cfg = EngineConfig::default();
    let learner = {
        let p = QAdaptiveParams::paper_1056();
        HystereticLearner::new(p.alpha, p.beta)
    };
    let mut k = KernelNs {
        queue_push_pop: queue_push_pop(&cfg, shape.entities, shape.pending_events),
        event_key: event_key_ns(),
        ..KernelNs::default()
    };
    if shape.streaming {
        k.record_streaming = record_ns(LatencyStats::streaming());
    } else {
        k.record_exact = record_ns(LatencyStats::new());
    }

    // The traffic kernels run on the 1,056-node system whatever the workload.
    let small = dragonfly(4, 8, 4);
    if shape.open_loop {
        if shape.adversarial {
            k.next_dest_adv = next_dest_ns(&small, TrafficSpec::Adversarial { shift: 1 });
        } else {
            k.next_dest_ur = next_dest_ns(&small, TrafficSpec::UniformRandom);
        }
        k.injector_next = injector_next_ns(&small, &cfg);
    }
    if !shape.large {
        k.minimal_port_1056 = minimal_port_ns(&small);
    }
    if shape.learning && !shape.paged {
        k.agent_feedback_dense = feedback_ns(&small, &cfg, 32);
        // Dense two-level table of one 1,056-node router: 132 rows x 15
        // columns.
        let mut dense = init_two_level_table(&small, &cfg, RouterId(0));
        let (rows, cols) = (dense.rows() as u64, dense.columns() as u64);
        k.dense_decide = per_call_ns(CALLS, |i| decision_burst(&dense, (i % rows) as usize));
        k.dense_update = per_call_ns(CALLS, |i| {
            update(
                &mut dense,
                &learner,
                (i % rows) as usize,
                (i % cols) as usize,
            )
        });
    }
    if !(shape.large || shape.paged) {
        return k;
    }

    // The paged kernels take their table's shape (4,624 rows x 35 columns)
    // from a 110,976-node router wherever the workload's paging comes from.
    let large = dragonfly(16, 24, 12);
    if shape.large {
        k.minimal_port_110k = minimal_port_ns(&large);
    }
    if !shape.paged {
        return k;
    }
    k.agent_feedback_paged = feedback_ns(&large, &cfg, 32);
    let fresh = || init_two_level_paged(&large, &cfg, RouterId(0));
    let untouched = fresh();
    let (rows, cols) = (untouched.rows() as u64, untouched.columns() as u64);
    // Odd stride: consecutive bursts land on different rows, as packets to
    // different destinations do.
    k.paged_read_untouched = per_call_ns(CALLS, |i| {
        decision_burst(&untouched, ((i * 37) % rows) as usize)
    });
    // A first write materialises a whole page, so each call allocates; a
    // table holds only `rows / PAGE_ROWS` of them. Fewer calls, fresh tables.
    let pages = untouched.rows().div_ceil(PAGE_ROWS);
    let tables = 128;
    let (mut spent_ns, mut grown) = (0u128, 0usize);
    for _ in 0..tables {
        let mut table = fresh();
        let before = table.memory_bytes();
        let started = Instant::now();
        for page in 0..pages {
            table.set(page * PAGE_ROWS, 0, black_box(1.0));
        }
        spent_ns += started.elapsed().as_nanos();
        grown += table.memory_bytes() - before;
        black_box(&table);
    }
    let first_writes = (tables * pages) as f64;
    k.paged_first_write = spent_ns as f64 / first_writes;
    k.paged_first_write_bytes = grown as f64 / first_writes;
    let mut warm = fresh();
    for page in 0..pages {
        warm.set(page * PAGE_ROWS, 0, 1.0);
    }
    k.paged_warm_update = per_call_ns(CALLS, |i| {
        update(
            &mut warm,
            &learner,
            ((i * 37) % rows) as usize,
            (i % cols) as usize,
        )
    });
    k
}
