//! What a checkpoint costs in heap, counted: the gate behind "a checkpoint
//! costs what it stores".
//!
//! An integration test is its own binary, so this one installs a counting
//! allocator (the pattern of `benchmark/src/alloc.rs`: live and peak bytes
//! in two relaxed atomics around `System`). Live heap repeats to the byte
//! at a fixed seed, so the bounds below are exact where a timing of the
//! same code carries 25 %:
//!
//! * `to_binary` peaks at most 2.5 × the stream above what was live (the
//!   stream itself, at most doubled by `Vec` growth — no tree);
//! * `from_binary` peaks at most the decoded snapshot + 1 × the stream
//!   above what was live, and leaves no `Vec` with spare capacity;
//! * a fabric packet costs its 14 stored fields and a queued message its
//!   three, on the wire and decoded, not a packet state of 104 bytes;
//! * no single damaged byte makes `from_binary` panic, or reserve more
//!   than the bytes of the file could hold elements.
//!
//! The third leg of a cycle, `Engine::restore`, reads the decoded snapshot
//! in place and copies none of it; its gate is the engine's
//! `hot_path_heap.rs::a_restore_costs_what_it_rebuilds`.
//!
//! The same counters bound what a report costs: the merged collector
//! shares the shards' frozen sample chunks, so above what was live it holds
//! at most one owned chunk per shard and small change, and its quantiles
//! are selected in place.

mod common;

use dragonfly_engine::config::ShardKind;
use dragonfly_engine::observer::ShardObserver;
use dragonfly_engine::AgentCheckpoint;
use dragonfly_routing::RoutingSpec;
use dragonfly_sim::builder::Simulation;
use dragonfly_sim::checkpoint::RunCheckpoint;
use dragonfly_sim::spec::ExperimentSpec;
use dragonfly_topology::config::DragonflyConfig;
use dragonfly_traffic::TrafficSpec;
use qadaptive_core::QAdaptiveParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

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
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are the process's: one measurement at a time.
static MEASURING: Mutex<()> = Mutex::new(());

/// `f`'s result, its peak heap above what was live when it started, and
/// what it left live.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = f();
    let peak = PEAK.load(Relaxed) - before;
    (out, peak, LIVE.load(Relaxed).saturating_sub(before))
}

/// Q-adaptive under ADV+1 on the 72-node system, cut while packets queue
/// in router buffers and at the NICs.
fn congested_snapshot() -> RunCheckpoint {
    let spec = ExperimentSpec {
        name: "heap-gate".to_string(),
        routing: RoutingSpec::QAdaptive(QAdaptiveParams::paper_1056()),
        traffic: TrafficSpec::Adversarial { shift: 1 },
        load: Some(0.6),
        warmup_ns: 3_000,
        measure_ns: 6_000,
        seed: Some(31),
        ..ExperimentSpec::new(DragonflyConfig::tiny())
    };
    let mut sim = Simulation::start(&spec).expect("valid spec");
    assert!(sim.advance_to(5_000), "the cut is mid-run");
    let ck = sim.snapshot();
    let shard = &ck.engine.shard;
    assert!(
        shard.arena.len() > 500 && shard.backlog.len() > 500,
        "the snapshot must hold packets in the fabric and messages at the NICs"
    );
    ck
}

#[test]
fn a_checkpoint_costs_what_it_stores() {
    let _one_at_a_time = MEASURING.lock().unwrap();
    let ck = congested_snapshot();

    let (bytes, peak, left) = measured(|| ck.to_binary());
    assert_eq!(
        (left, bytes.capacity()),
        (bytes.len(), bytes.len()),
        "the stream is all `to_binary` leaves behind"
    );
    assert!(
        peak * 2 <= bytes.len() * 5,
        "to_binary peaked {peak} B above live for a {} B stream (bound 2.5 x)",
        bytes.len()
    );

    let (back, peak, decoded) = measured(|| RunCheckpoint::from_binary(&bytes).expect("decodes"));
    assert!(
        peak <= decoded + bytes.len(),
        "from_binary peaked {peak} B above live for a {decoded} B snapshot \
         and a {} B stream (bound: their sum)",
        bytes.len()
    );

    // Nothing decoded was grown by doubling: on the 110,976-node system a
    // Q-table is 161,840 values per agent, and spare capacity there is
    // what the benchmark's checkpoint heap peak would be made of.
    let shard = &back.engine.shard;
    let (arena, backlog) = (&shard.arena, &shard.backlog);
    let capacities = [
        ("arena.id", arena.id.capacity(), arena.len()),
        ("arena.src", arena.src.capacity(), arena.len()),
        ("arena.dst", arena.dst.capacity(), arena.len()),
        ("arena.created_ns", arena.created_ns.capacity(), arena.len()),
        (
            "arena.injected_ns",
            arena.injected_ns.capacity(),
            arena.len(),
        ),
        (
            "arena.last_decision_ns",
            arena.last_decision_ns.capacity(),
            arena.len(),
        ),
        (
            "arena.last_router",
            arena.last_router.capacity(),
            arena.len(),
        ),
        (
            "arena.last_out_port",
            arena.last_out_port.capacity(),
            arena.len(),
        ),
        ("arena.via", arena.via.capacity(), arena.len()),
        (
            "arena.pending_port",
            arena.pending_port.capacity(),
            arena.len(),
        ),
        ("arena.pending_vc", arena.pending_vc.capacity(), arena.len()),
        ("arena.hops", arena.hops.capacity(), arena.len()),
        ("arena.vc", arena.vc.capacity(), arena.len()),
        ("arena.flags", arena.flags.capacity(), arena.len()),
        ("backlog.id", backlog.id.capacity(), backlog.len()),
        ("backlog.dst", backlog.dst.capacity(), backlog.len()),
        (
            "backlog.created_ns",
            backlog.created_ns.capacity(),
            backlog.len(),
        ),
    ];
    for (column, capacity, len) in capacities {
        assert_eq!(capacity, len, "{column}");
    }
    assert_eq!(shard.queue.events.capacity(), shard.queue.events.len());
    assert_eq!(shard.agents.capacity(), shard.agents.len());
    assert_eq!(shard.nics.capacity(), shard.nics.len());
    for agent in &shard.agents {
        assert!(!agent.q_values.is_empty(), "Q-adaptive agents carry tables");
        assert_eq!(agent.q_values.capacity(), agent.q_values.len());
        assert_eq!(agent.counters.capacity(), agent.counters.len());
    }
    let injector = &back.engine.injector;
    assert_eq!(injector.heap.capacity(), injector.heap.len());
    assert_eq!(injector.residual.capacity(), injector.residual.len());
    assert_eq!(back.to_binary(), bytes);
}

#[test]
fn a_queued_message_costs_a_record_not_a_packet() {
    // What one more fabric packet and one more queued message add to the
    // stream and to the decoded snapshot, counted as the difference between
    // the congested snapshot and the same snapshot without them. A fabric
    // packet is its 14 stored fields, a queued message its three.
    let _one_at_a_time = MEASURING.lock().unwrap();
    let ck = congested_snapshot();
    let shard = &ck.engine.shard;
    let (packets, messages) = (shard.arena.len(), shard.backlog.len());
    let cost = |ck: &RunCheckpoint| {
        let bytes = ck.to_binary();
        let (_, _, decoded) = measured(|| RunCheckpoint::from_binary(&bytes).expect("decodes"));
        (bytes.len(), decoded)
    };
    let (bytes, heap) = cost(&ck);
    let mut without = ck.clone();
    without.engine.shard.arena = Default::default();
    let (fabric_bytes, fabric_heap) = cost(&without);
    without.engine.shard.backlog = Default::default();
    let (backlog_bytes, backlog_heap) = cost(&without);
    let per = |total: usize, rest: usize, n: usize| (total - rest) as f64 / n as f64;
    let per_packet = (
        per(bytes, fabric_bytes, packets),
        per(heap, fabric_heap, packets),
    );
    let per_message = (
        per(fabric_bytes, backlog_bytes, messages),
        per(fabric_heap, backlog_heap, messages),
    );
    // Measured: 25.6 B and 56 B per fabric packet (3,757 of them), 5.1 B and
    // 20 B per queued message (1,807). A packet's 56 B are its columns'
    // element sizes and a message's 20 its record's fields, so decoding
    // wastes nothing. As the 104-byte packet state of the previous format,
    // the same snapshot spent 79.9 B on the wire and 104 B decoded per fabric
    // packet, and 80.2 B and 108 B per queued message.
    let bounds = [
        ("stream bytes per fabric packet", per_packet.0, 32.0),
        ("decoded bytes per fabric packet", per_packet.1, 56.0),
        ("stream bytes per queued message", per_message.0, 8.0),
        ("decoded bytes per queued message", per_message.1, 20.0),
    ];
    for (what, cost, bound) in bounds {
        assert!(cost <= bound, "{what}: {cost:.1}, bound {bound}");
    }
}

#[test]
fn no_damaged_byte_buys_memory_or_a_panic() {
    let _one_at_a_time = MEASURING.lock().unwrap();
    // Every byte of a real snapshot flipped, one at a time. Each decode
    // ends in an error that says where (or which tag or magic was refused)
    // or in some well-formed snapshot. And none buys more heap than the
    // file's size allows: a count is checked against the bytes left
    // before anything is reserved for it (and a run-length total against
    // the expansion budget), so the worst a flipped count can ask for is
    // one element of the largest type a snapshot's sequences hold — an
    // agent section, 112 B; a router section is 88, an event 80, a packet
    // column entry at most 8 — per byte of file.
    let good = common::smallest_snapshot().to_binary();
    let (_, _, decoded) = measured(|| RunCheckpoint::from_binary(&good).expect("decodes"));
    let mut bad = good.clone();
    for i in 0..good.len() {
        bad[i] ^= 0xff;
        let (result, peak, _) = measured(|| RunCheckpoint::from_binary(&bad).map(drop));
        bad[i] = good[i];
        assert!(
            peak <= decoded + good.len() * std::mem::size_of::<AgentCheckpoint>(),
            "byte {i} flipped: decode peaked {peak} B for a {} B file",
            good.len()
        );
        if let Err(e) = result {
            assert!(
                [
                    "at byte",
                    "near byte",
                    "QADBIN magic",
                    "codec version",
                    "checkpoint version"
                ]
                .iter()
                .any(|clue| e.0.contains(clue)),
                "byte {i} flipped: the error does not say where: {e}"
            );
        }
    }
}

/// Uniform random traffic at load 0.5 on the 72-node system with exact
/// latency samples, run to the end of a `measure_ns` window.
fn finished_exact_run(shards: ShardKind, measure_ns: u64) -> Simulation {
    let spec = common::in_mode(
        ExperimentSpec {
            name: "report-heap".to_string(),
            traffic: TrafficSpec::UniformRandom,
            load: Some(0.5),
            warmup_ns: 2_000,
            measure_ns,
            seed: Some(5),
            ..ExperimentSpec::new(DragonflyConfig::tiny())
        },
        shards,
        false,
    );
    let mut sim = Simulation::start(&spec).expect("valid spec");
    sim.advance_to(spec.total_ns());
    sim
}

#[test]
fn a_report_holds_one_copy_of_the_samples() {
    // `report()` merges the shards' collectors into one clone, which
    // absorbs the other shards' borrowed samples, and selects its
    // quantiles in place. Above what was live, it holds at most that
    // clone and small change: no sorted copy of the samples beside it,
    // and no clone of another shard's collector.
    let _one_at_a_time = MEASURING.lock().unwrap();
    for shards in [ShardKind::Single, ShardKind::Fixed(2)] {
        let mut sim = finished_exact_run(shards, 60_000);
        let merged = sim.snapshot().collector;
        let (samples, bytes) = (merged.latency.count(), merged.memory_bytes());
        drop(merged);
        assert!(
            samples > 20_000,
            "{shards:?}: {samples} samples, too few to tell"
        );
        let (report, peak, _) = measured(|| sim.report());
        assert_eq!(report.packets_delivered, samples as u64);
        assert!(
            peak <= bytes + 64 * 1024,
            "{shards:?}: report() peaked {peak} B above live for a {bytes} B merged \
             collector of {samples} samples (bound: it + 64 KiB)"
        );
    }
}

#[test]
fn a_report_copies_no_samples() {
    // The merged collector shares the shards' frozen sample chunks and
    // copies only the chunk each shard is filling, at most 64 KiB: above
    // what was live, `report()` peaks at 64 KiB per shard and 64 KiB more
    // for everything else, however many samples there are.
    let _one_at_a_time = MEASURING.lock().unwrap();
    for (shards, n) in [(ShardKind::Single, 1), (ShardKind::Fixed(2), 2)] {
        let sim = finished_exact_run(shards, 60_000);
        let (report, peak, _) = measured(|| sim.report());
        let samples = report.packets_delivered as usize;
        let bound = 64 * 1024 * (n + 1);
        assert!(
            samples * 4 > bound,
            "{shards:?}: {samples} samples, too few to tell a copy of them"
        );
        assert!(
            peak <= bound,
            "{shards:?}: report() peaked {peak} B above live for {samples} samples \
             (bound: 64 KiB x {})",
            n + 1
        );
    }
}

#[test]
fn the_heap_breakdown_names_the_observers() {
    // `observers` sums what each shard's collector holds, without merging:
    // 4 B per sample in the window, plus per shard at most the unused rest
    // of the chunk it is filling (64 KiB) and its hop histogram.
    let _one_at_a_time = MEASURING.lock().unwrap();
    for (shards, n) in [(ShardKind::Single, 1), (ShardKind::Fixed(2), 2)] {
        let mut sim = finished_exact_run(shards, 60_000);
        let observers = sim.memory_breakdown().observers;
        let merged = sim.snapshot().collector;
        let samples = 4 * merged.latency.count();
        let bound = samples + n * (64 * 1024 + merged.hops.memory_bytes());
        assert!(
            (samples..=bound).contains(&observers),
            "{shards:?}: observers hold {observers} B, not in [{samples}, {bound}]"
        );
    }
}
