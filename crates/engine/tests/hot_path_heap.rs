//! What the engine's containers of in-flight work cost in heap, counted:
//! the gates behind "the queue, the arena, a router and the NIC backlog
//! cost what is in flight", "a restore costs what it rebuilds" — it reads
//! the snapshot in place and writes the fresh engine's own state, so its
//! peak is what it leaves live plus small change — and "a checkpoint costs
//! what it writes": one walk over the shards writes every packet straight
//! into its canonical slot, so its peak is the snapshot it returns, the
//! same at every shard count.
//!
//! An integration test is its own binary, so this one installs a counting
//! allocator (the pattern of `benchmark/src/alloc.rs`: live and peak bytes
//! in relaxed atomics around `System`). Heap counts repeat to the byte, so
//! the bounds below are tight where a timing of the same code carries 25 %.
//!
//! What they replaced: one `Vec<Event>` per wheel bucket that never gave
//! capacity back (2,048 × 512 × 80 B = 84 MB of `ur_ugal_1056`'s 98 MB
//! peak), one doubling `Vec<Packet>` (82 MB of `adv_qadp_1056`'s 112 MB
//! at the last doubling), one `VecDeque` per router queue (21,216 B per
//! router before a packet moved: 151 MB of the 110,976-node workload's
//! 196 MB), a NIC backlog of 104-byte arena packets behind one `VecDeque`
//! per NIC (41.4 MB of `adv_qadp_1056`'s 57.4 MB), 104-byte packets
//! spanning two or three cache lines where one of 64 bytes holds them, a
//! restore that copied the whole snapshot into per-shard parts and then
//! cloned every router and task program again (+38.9 MB over 36.2 MB live
//! on `adv_qadp_1056`), and a checkpoint that wrote one snapshot per shard
//! and joined them into a second copy of the arena (+1.19 MB over the
//! 1.34 MB it kept, open loop below at two and four shards).

use dragonfly_engine::arena::{PacketArena, PacketRef, CHUNK_SLOTS};
use dragonfly_engine::config::{EngineConfig, ShardKind};
use dragonfly_engine::event::{Event, EventKind, EventQueue, Scheduler};
use dragonfly_engine::injector::{EmptyInjector, Injection, ScriptedInjector, TrafficInjector};
use dragonfly_engine::nic::{Backlog, Nic, Queued, CHUNK_RECORDS};
use dragonfly_engine::observer::CountingObserver;
use dragonfly_engine::packet::Packet;
use dragonfly_engine::router::RouterState;
use dragonfly_engine::routing::FeedbackMsg;
use dragonfly_engine::testing::MinimalTestRouting;
use dragonfly_engine::workload::{NodeProgram, Op};
use dragonfly_engine::Engine;
use dragonfly_topology::config::DragonflyConfig;
use dragonfly_topology::ids::{GroupId, NodeId, Port, RouterId};
use dragonfly_topology::{AnyTopology, Dragonfly, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Old and new block count as live together, as they are while
            // the allocator copies.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> usize {
    LIVE.load(Relaxed)
}

/// The counters are the process's: one measurement at a time.
static MEASURING: Mutex<()> = Mutex::new(());

/// `reported` is within 1 % of `counted`.
fn assert_within_1_percent(reported: usize, counted: usize, what: &str) {
    let (r, c) = (reported as f64, counted as f64);
    assert!(
        (r - c).abs() <= 0.01 * c,
        "{what}: reports {reported} B, allocator counted {counted} B"
    );
}

fn packet(topo: &Dragonfly, id: u64) -> Packet {
    Packet::new(topo, id, NodeId(0), NodeId(1), 0)
}

/// A cheap deterministic stream for event contents.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// Hold model: `pending` events, every pop scheduling a successor one of
/// the five `EngineConfig` latencies ahead, run until the clock has passed
/// each of `marks`; the queue's live heap at each mark, then the queue.
fn hold_model(
    cfg: &EngineConfig,
    pending: usize,
    marks: &[u64],
    kind: impl Fn(&mut u64) -> EventKind,
) -> (Vec<usize>, EventQueue) {
    let deltas = [
        cfg.serialization_ns(),
        cfg.local_latency_ns,
        cfg.global_latency_ns,
        cfg.router_latency_ns,
        cfg.host_latency_ns,
    ];
    let mut x = 7u64;
    let before = live();
    let mut queue = EventQueue::for_config(cfg);
    for _ in 0..pending {
        let at = lcg(&mut x) % cfg.global_latency_ns;
        queue.push(at, kind(&mut x));
    }
    let mut heap_at = Vec::new();
    for &mark in marks {
        loop {
            let event = queue.pop().expect("the hold model never drains");
            if event.time >= mark {
                queue.push(event.time, event.kind);
                break;
            }
            let delta = deltas[(lcg(&mut x) % 5) as usize];
            queue.push(event.time + delta, kind(&mut x));
        }
        assert_eq!(queue.len(), pending);
        heap_at.push(live() - before);
    }
    (heap_at, queue)
}

fn switch_attempt(x: &mut u64) -> EventKind {
    EventKind::SwitchAttempt {
        router: RouterId((lcg(x) % 264) as u32),
        port: Port((lcg(x) % 16) as u16),
        vc: (lcg(x) % 4) as u8,
    }
}

/// Every third event one of the kinds that live in the queue's side slab.
fn mixed(x: &mut u64) -> EventKind {
    let node = NodeId((lcg(x) % 1_056) as u32);
    match lcg(x) % 6 {
        0 => EventKind::RlFeedback {
            router: RouterId((lcg(x) % 264) as u32),
            msg: FeedbackMsg {
                packet_id: lcg(x),
                src: node,
                dst: node,
                dst_router: RouterId(0),
                dst_group: GroupId(0),
                src_slot: 0,
                port: Port(3),
                reward_ns: 100.0,
                downstream_estimate_ns: 900.0,
            },
        },
        1 => EventKind::DropNotice {
            node,
            dst: node,
            id: lcg(x),
        },
        2 => EventKind::NicCredit { node },
        _ => switch_attempt(x),
    }
}

fn event_queue_heap_follows_pending_events() {
    // (c) The wire types did not move (a change there is a format change).
    assert_eq!(size_of::<Event>(), 80);
    assert_eq!(size_of::<EventKind>(), 56);

    // (a) Eight revolutions of the default 2,048 ns wheel.
    const PENDING: usize = 32_768;
    const ENTRY: usize = 40;
    let cfg = EngineConfig::default();
    let horizon = 2_048;
    let marks: Vec<u64> = (1..=8).map(|rev| rev * horizon).collect();
    let (heap_at, queue) = hold_model(&cfg, PENDING, &marks, switch_attempt);
    let (rev2, rev8) = (heap_at[1] as f64, heap_at[7] as f64);
    assert!(
        (rev8 - rev2).abs() <= 0.05 * rev2,
        "queue heap moved between revolution 2 and 8: {heap_at:?}"
    );
    // 2,048 bucket headers and two 2,048-bit maps.
    let bucket_table = horizon as usize * size_of::<Vec<u8>>() + 2 * horizon as usize / 8;
    // A buffer is at most twice its tick's events (`Vec` doubling) and an
    // empty tick owns none, so the slack is 2 ×, not the 4 × the gate was
    // written for.
    for &heap in &heap_at {
        assert!(
            heap <= 2 * PENDING * ENTRY + bucket_table,
            "queue heap {heap} B for {PENDING} pending events: {heap_at:?}"
        );
    }
    assert_within_1_percent(queue.memory_bytes(), heap_at[7], "small-kind queue");
    drop(queue);

    // The side slab is counted too.
    let (heap_at, queue) = hold_model(&cfg, PENDING, &marks[..2], mixed);
    assert_within_1_percent(queue.memory_bytes(), heap_at[1], "mixed-kind queue");
}

fn arena_growth_and_restore_copy_nothing() {
    // (c) One packet, one cache line.
    assert_eq!(size_of::<Packet>(), 64);
    assert_eq!(std::mem::align_of::<Packet>(), 64);
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let chunk_bytes = CHUNK_SLOTS * size_of::<Packet>();
    // Debug builds mirror liveness in a `Vec<bool>`, one byte per slot,
    // which `memory_bytes` leaves out.
    let debug_mirror = |bytes: usize| if cfg!(debug_assertions) { bytes } else { 0 };

    // (b) Growth: the peak is what ends up live, not 1.5 × it.
    const PACKETS: usize = 300_000;
    let before = live();
    PEAK.store(before, Relaxed);
    let mut arena = PacketArena::new();
    for i in 0..PACKETS {
        arena.alloc(packet(&topo, i as u64));
    }
    let peak = PEAK.load(Relaxed) - before;
    let final_live = PACKETS * size_of::<Packet>();
    // Pushed one by one, the mirror has doubled to a power of two.
    let mirror = debug_mirror(PACKETS.next_power_of_two());
    assert!(
        peak as f64 <= 1.05 * final_live as f64 + (chunk_bytes + mirror) as f64,
        "growing to {PACKETS} packets peaked at {peak} B for {final_live} B of packets"
    );
    let counted = live() - before;
    assert!(arena.memory_bytes() <= counted);
    assert_within_1_percent(arena.memory_bytes() + mirror, counted, "packet arena");

    // Fill the last chunk, so the first allocation after a restore has to
    // open a new one — the worst case.
    while !arena.high_water().is_multiple_of(CHUNK_SLOTS) {
        arena.alloc(packet(&topo, 0));
    }
    let slots = arena.high_water();
    drop(arena);
    // A restore allocates a snapshot's packets, in walk order, into a fresh
    // arena.
    let mut restored = PacketArena::new();
    for id in 0..slots as u64 {
        restored.alloc(packet(&topo, id));
    }
    assert_eq!(restored.live_count(), slots);
    let probes = [0, CHUNK_SLOTS - 1, CHUNK_SLOTS, slots / 2, slots - 1];
    let address = |arena: &PacketArena, slot: usize| {
        let packet = arena.get(PacketRef(slot as u32));
        (packet as *const Packet as usize, packet.id)
    };
    let homes: Vec<_> = probes.iter().map(|&s| address(&restored, s)).collect();
    let before = live();
    let fresh = restored.alloc(packet(&topo, u64::MAX));
    let growth = live() - before;
    assert_eq!(fresh.index(), slots);
    // One chunk and a doubled chunk table (and mirror), nothing else.
    let table = (slots / CHUNK_SLOTS) * size_of::<Vec<Packet>>();
    assert!(
        growth <= chunk_bytes + table + debug_mirror(slots),
        "the first alloc after a restore grew the heap by {growth} B"
    );
    let after: Vec<_> = probes.iter().map(|&s| address(&restored, s)).collect();
    assert_eq!(homes, after, "a packet moved");
}

fn router_state_costs_what_it_buffers() {
    // Router 0 of the 110,976-node Dragonfly: radix 51, 5 VCs. A router
    // of one deque per queue owned 21,216 B here before a packet moved.
    let topo = AnyTopology::from(Dragonfly::new(DragonflyConfig {
        p: 16,
        a: 24,
        h: 12,
    }));
    assert_eq!(topo.num_nodes(), 110_976);
    assert_eq!(topo.radix(RouterId(0)), 51);
    let cfg = EngineConfig::paper(5);
    let before = live();
    let mut router = RouterState::new(&topo, RouterId(0), &cfg);
    let owned = live() - before;
    assert!(owned <= 9_000, "a fresh scale router owns {owned} B");
    assert_eq!(router.memory_bytes(), owned);

    // Warm to 40 buffered packets spread over fabric cells, then move
    // packets through the router: every cycle takes the oldest packet off
    // an output queue, passes it through an input buffer and queues it
    // again elsewhere, so the links are reused in every order.
    let cell = |i: u32| (Port(16 + (i % 35) as u16), (i % 5) as u8);
    for i in 0..40 {
        let (port, vc) = cell(i);
        router.push_output(port, vc, PacketRef(i));
    }
    let before = live();
    PEAK.store(before, Relaxed);
    for i in 0..100_000u32 {
        let (port, vc) = cell(i);
        let packet = router
            .pop_output(port, vc)
            .expect("each cell holds a packet");
        let (port, vc) = cell(i.wrapping_mul(7) + 3);
        router.push_input(port, vc, packet, &cfg);
        let packet = router.pop_input(port, vc).expect("just pushed");
        router.push_input_front(port, vc, packet);
        let packet = router.pop_input(port, vc).expect("just pushed");
        let (port, vc) = cell(i);
        router.push_output(port, vc, packet);
    }
    assert_eq!(router.buffered_packets(), 40);
    let grew = PEAK.load(Relaxed) - before;
    assert_eq!(grew, 0, "100,000 push/pop cycles allocated {grew} B");
}

fn nic_backlog_costs_what_it_queues() {
    const RECORD: usize = 24;
    let message = |id: u64| Queued {
        id,
        dst: NodeId((id % 72) as u32),
        created_ns: id,
    };
    // A fresh engine's NICs own no backlog memory, and a NIC record is all
    // a node costs.
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let nodes = topo.num_nodes();
    for shards in [ShardKind::Single, ShardKind::Fixed(3)] {
        let engine = Engine::new(
            topo.clone(),
            EngineConfig {
                shards,
                ..EngineConfig::paper(3)
            },
            &MinimalTestRouting,
            Box::new(ScriptedInjector::new(Vec::new())),
            CountingObserver::default(),
            1,
        );
        let heap = engine.memory_breakdown();
        assert_eq!(heap.backlog, 0, "{shards:?}");
        assert_eq!(heap.nic_state, nodes * size_of::<Nic>(), "{shards:?}");
    }
    assert!(size_of::<Nic>() <= 48);
    let cfg = EngineConfig::default();
    let mut nics: Vec<Nic> = (0..64).map(|_| Nic::new(&cfg)).collect();
    let before = live();
    let mut pool = Backlog::new();
    assert_eq!(live(), before, "an empty pool allocates");

    // N records cost 24 B each plus at most one chunk (the last one's
    // unused tail and the chunk table together stay under one here).
    const QUEUED: usize = 100_000;
    for i in 0..QUEUED {
        pool.push_back(&mut nics[i % 64], message(i as u64));
    }
    let counted = live() - before;
    assert!(
        counted <= RECORD * QUEUED + RECORD * CHUNK_RECORDS,
        "{QUEUED} queued messages hold {counted} B"
    );
    assert_eq!(pool.memory_bytes(), counted);

    // At a steady backlog, moving messages through the pool allocates
    // nothing: every pop frees the record the next push takes.
    let before = live();
    PEAK.store(before, Relaxed);
    for i in 0..100_000 {
        let msg = pool
            .pop_front(&mut nics[i % 64])
            .expect("every NIC holds messages");
        pool.push_back(&mut nics[(i * 7 + 3) % 64], msg);
    }
    assert_eq!(pool.len(), QUEUED);
    let grew = PEAK.load(Relaxed) - before;
    assert_eq!(grew, 0, "100,000 push/pop cycles allocated {grew} B");
}

fn breakdown_names_what_memory_bytes_counts() {
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let script: Vec<Injection> = (0..2_000u64)
        .map(|i| Injection {
            time: i * 4,
            src: NodeId((i % 72) as u32),
            dst: NodeId(((i * 7 + 1) % 72) as u32),
        })
        .filter(|inj| inj.src != inj.dst)
        .collect();
    for shards in [ShardKind::Single, ShardKind::Fixed(3)] {
        let cfg = EngineConfig {
            shards,
            ..EngineConfig::paper(3)
        };
        let mut engine = Engine::new(
            topo.clone(),
            cfg,
            &MinimalTestRouting,
            Box::new(ScriptedInjector::new(script.clone())),
            CountingObserver::default(),
            1,
        );
        engine.run_until(4_000);
        let heap = engine.memory_breakdown();
        assert_eq!(
            heap.tables + heap.arena + heap.backlog + heap.mailboxes,
            engine.memory_bytes()
        );
        assert!(heap.arena >= CHUNK_SLOTS * size_of::<Packet>());
        assert!(
            heap.backlog >= CHUNK_RECORDS * 24,
            "every message queues first"
        );
        assert!(heap.event_queues > 0 && heap.router_state > 0 && heap.nic_state > 0);
    }
}

// One test function per measurement lock: the counters are the process's,
// and the harness runs test functions on parallel threads.
#[test]
fn the_hot_path_heap_costs_what_is_in_flight() {
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    event_queue_heap_follows_pending_events();
    arena_growth_and_restore_copy_nothing();
    router_state_costs_what_it_buffers();
    nic_backlog_costs_what_it_queues();
    breakdown_names_what_memory_bytes_counts();
}

/// A tiny-Dragonfly engine in `shards` mode running `programs` closed loop,
/// or open loop a script that sends every node's traffic to four nodes,
/// faster than they can take it.
fn restore_subject(
    shards: ShardKind,
    programs: Option<&[NodeProgram]>,
) -> Engine<CountingObserver> {
    let script: Vec<Injection> = (0..16_000u64)
        .map(|i| Injection {
            time: i / 4,
            src: NodeId((i % 72) as u32),
            dst: NodeId((i % 4 * 18 + 1) as u32),
        })
        .filter(|inj| inj.src != inj.dst)
        .collect();
    let injector: Box<dyn TrafficInjector> = match programs {
        Some(_) => Box::new(EmptyInjector),
        None => Box::new(ScriptedInjector::new(script)),
    };
    let cfg = EngineConfig {
        shards,
        ..EngineConfig::paper(3)
    };
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let mut engine = Engine::new(
        topo,
        cfg,
        &MinimalTestRouting,
        injector,
        CountingObserver::default(),
        3,
    );
    if let Some(programs) = programs {
        engine.install_workload(programs.to_vec());
    }
    engine
}

/// Forty rounds per rank: eight messages out to two ranks, eight in from
/// two others, a short compute.
fn exchange_programs() -> Vec<NodeProgram> {
    (0..72u32)
        .map(|i| {
            let node = |off: u32| NodeId((i + off) % 72);
            (0..40)
                .flat_map(|_| {
                    [
                        Op::Send {
                            dst: node(1),
                            messages: 4,
                        },
                        Op::Send {
                            dst: node(9),
                            messages: 4,
                        },
                        Op::Recv {
                            from: node(71),
                            messages: 4,
                            barrier: false,
                        },
                        Op::Recv {
                            from: node(63),
                            messages: 4,
                            barrier: false,
                        },
                        Op::Compute { delay_ns: 20 },
                    ]
                })
                .collect::<Vec<_>>()
                .into()
        })
        .collect()
}

#[test]
fn a_restore_costs_what_it_rebuilds() {
    // A restore reads the snapshot in place and writes the fresh engine's
    // own routers, tables, NICs, queue and arena: above what it leaves
    // live, it may hold one router's state in passing and small change.
    // Copying the snapshot into per-shard parts first, or a router or
    // program the engine already holds, costs the size of what is copied.
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let programs = exchange_programs();
    for (what, programs) in [("open loop", None), ("closed loop", Some(&programs[..]))] {
        for shards in [ShardKind::Single, ShardKind::Fixed(2)] {
            let mut source = restore_subject(shards, programs);
            source.run_until(3_000);
            assert!(source.has_pending_events(), "{what}: the cut is mid-run");
            let ck = source.checkpoint();
            drop(source);
            let held = ck.shard.arena.len() + ck.shard.backlog.len();
            assert!(held > 200, "{what}: the snapshot holds {held} packets");
            let router = (ck.shard.routers.iter())
                .map(|r| size_of::<RouterState>() + r.memory_bytes())
                .max()
                .expect("a router");
            let mut fresh = restore_subject(shards, programs);
            let before = live();
            PEAK.store(before, Relaxed);
            fresh.restore(&ck);
            let peak = PEAK.load(Relaxed) - before;
            let left = live().saturating_sub(before);
            assert!(
                peak <= left + router + 64 * 1024,
                "{what} at {shards:?}: restore peaked {peak} B above live and left {left} B \
                 (bound: that + one router's {router} B + 64 KiB)"
            );
        }
    }
}

#[test]
fn a_checkpoint_costs_what_it_writes() {
    // A checkpoint walks the shards once and writes every packet straight
    // into its canonical slot: above what the snapshot keeps, it may hold
    // one router's state in passing and small change, and what it keeps is
    // the same at every shard count. Per-shard snapshots joined into one
    // and renumbered cost a second copy of the arena.
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let programs = exchange_programs();
    for (what, programs) in [("open loop", None), ("closed loop", Some(&programs[..]))] {
        let mut kept = Vec::new();
        for shards in [ShardKind::Single, ShardKind::Fixed(2), ShardKind::Fixed(4)] {
            let mut source = restore_subject(shards, programs);
            source.run_until(3_000);
            assert!(source.has_pending_events(), "{what}: the cut is mid-run");
            let before = live();
            PEAK.store(before, Relaxed);
            let ck = source.checkpoint();
            let peak = PEAK.load(Relaxed) - before;
            let left = live().saturating_sub(before);
            let shard = &ck.shard;
            let held = shard.arena.len() + shard.backlog.len();
            assert!(
                held > 200 && shard.nics.iter().any(|n| n.queued > 1),
                "{what}: the snapshot holds {held} packets; some NIC must queue two or more"
            );
            let router = (shard.routers.iter())
                .map(|r| size_of::<RouterState>() + r.memory_bytes())
                .max()
                .expect("a router");
            assert!(
                peak <= left + router + 64 * 1024,
                "{what} at {shards:?}: the checkpoint peaked {peak} B above live and keeps \
                 {left} B (bound: that + one router's {router} B + 64 KiB)"
            );
            kept.push((shards, left));
        }
        assert!(
            kept.iter().all(|&(_, left)| left == kept[0].1),
            "{what}: the snapshot keeps {kept:?} B, not the same at every shard count"
        );
    }
}
