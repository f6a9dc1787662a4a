//! Checkpoint/resume of a running engine — sequential, sharded, or
//! pipelined.
//!
//! A checkpoint is a complete, serialisable snapshot of the simulation
//! state between two [`crate::Engine::run_until`] calls: router buffers,
//! NIC queues, the packet arena, the pending event set (with its sequence
//! counters, so tie-breaking stays identical), the fault schedule cursor,
//! closed-loop task state, and the mutable state of every routing agent
//! and of the traffic injector (RNG streams, Q-tables, heap positions).
//!
//! Restoring a checkpoint into a freshly built engine — same topology,
//! configuration, routing algorithm, injector kind and seed — resumes the
//! run **bit-for-bit**: the resumed half produces exactly the events, in
//! exactly the order, that the uninterrupted run would have produced. The
//! differential tests in `dragonfly-sim` pin this down to full-report
//! equality.
//!
//! # The canonical single-shard-equivalent form
//!
//! Sharded and pipelined engines checkpoint through the **same**
//! [`ShardCheckpoint`] shape a single-shard engine uses. Between two
//! `run_until` calls every shard sits at the same window boundary (the
//! engine clock `t_cap`, a lookahead-window multiple), so the union of
//! per-shard states is a globally consistent cut. [`merge_shards`] folds
//! the N per-shard snapshots into one canonical partition-independent
//! snapshot: cross-shard mail is drained into the owning queues first
//! (exactly what the next window would do), events are merged in
//! `(time, key, seq)` order and re-sequenced, the shards' packed arenas
//! are joined and re-numbered into one canonical arena by one
//! deterministic walk over the whole system (every router, every NIC,
//! then the merged events — so a snapshot taken at any shard count has
//! the single-shard bytes), and counters are summed.
//! [`split_for_plan`] is the inverse: it carves the canonical snapshot
//! into per-shard snapshots for **any** target [`crate::sync::ShardPlan`].
//! Because the canonical form is partition-independent, a snapshot taken
//! at `shards = N` resumes bit-identically at `shards = M` for any `M`,
//! pipeline on or off — the same execution-mode invariance the engine
//! guarantees for uninterrupted runs.
//!
//! Event keys are content-derived and embed the owning entity, so two
//! events from different shards can never tie on `(time, key)`; the merged
//! order is well-defined and re-sequencing by merged position keeps
//! tie-breaking deterministic. `TrafficArrival` markers (key 0, one per
//! pending injection) are dropped at merge and regenerated from
//! `pending_injections` at restore, which keeps the marker↔FIFO
//! correspondence intact across re-partitioning.
//!
//! The immutable parts — topology, engine configuration, routing
//! algorithm, per-router agent seeds — are deliberately **not** stored;
//! the caller rebuilds them from its experiment spec and the checkpoint
//! only carries the mutable remainder. The `dragonfly-sim` layer embeds
//! the full spec next to the engine state so a resume can verify it is
//! rebuilding the same experiment, and owns the file format: the derived
//! `Serialize` / `Deserialize` impls of the types below are event streams,
//! which its `QADBIN` writer and reader turn straight into and out of
//! bytes, so no tree-shaped copy of a snapshot is ever built.

use crate::arena::PacketRef;
use crate::event::{EventKind, SchedulerCheckpoint};
use crate::fault::CompiledFault;
use crate::injector::Injection;
use crate::nic::NicState;
use crate::packet::Packet;
use crate::router::RouterState;
use crate::sync::{QueuedInjection, ShardPlan};
use crate::time::SimTime;
use crate::workload::{NodeTask, WORKLOAD_ID_BIT, WORKLOAD_SEQ_BITS};
use dragonfly_topology::ids::NodeId;
use dragonfly_topology::{AnyTopology, Topology};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Mutable state of one routing agent (see
/// [`crate::routing::RouterAgent::save_state`]).
///
/// The shape is deliberately algorithm-agnostic: every shipped agent is a
/// combination of an RNG stream, a flat Q-value table and a few counters,
/// and everything else is rebuilt from `(topology, config, seed)` by the
/// algorithm factory. Stateless agents (pure minimal routing) use the
/// `Default` value.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AgentCheckpoint {
    /// xoshiro256++ RNG state, for agents that draw randomness.
    pub rng: Option<[u64; 4]>,
    /// Flattened Q-table values, for learning agents. When `q_rows` is
    /// empty this is the **full** row-major table; otherwise it holds only
    /// the listed rows (row-major per row), the sparse form paged tables
    /// use.
    pub q_values: Vec<f64>,
    /// Algorithm-specific counters (e.g. Q-adaptive decision statistics).
    pub counters: Vec<u64>,
    /// Strictly ascending row indices of the rows carried in `q_values` —
    /// the rows of a paged Q-table that were ever written. Empty for dense
    /// tables (including every checkpoint written before paged tables
    /// existed, which this serde default keeps readable). Restoring the
    /// listed rows into a fresh paged table reproduces the learned values
    /// and the set of stored rows. Snapshots written while the table's
    /// unit was a 64-row page list whole pages, page-mates at their init
    /// values; they restore the same way.
    #[serde(default)]
    pub q_rows: Vec<u32>,
}

/// Mutable state of a traffic injector (see
/// [`crate::injector::TrafficInjector::save_state`]).
///
/// Like [`AgentCheckpoint`], the shape covers every shipped injector:
/// a scripted injector stores its cursor in `counters`, a pattern
/// injector its RNG, per-node generation heap and fractional residuals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InjectorCheckpoint {
    /// xoshiro256++ RNG state, for randomised injectors.
    pub rng: Option<[u64; 4]>,
    /// Pending `(time, node)` entries of a per-node generation heap.
    pub heap: Vec<(u64, u32)>,
    /// Per-node fractional inter-arrival remainders.
    pub residual: Vec<f64>,
    /// Injector-specific counters (messages generated, script cursor...).
    pub counters: Vec<u64>,
}

/// The packet arena. [`crate::arena::PacketArena::checkpoint`] gives every
/// slot ever allocated plus the LIFO free list; a snapshot instead holds
/// exactly the packets the canonical walk reaches, in walk order, with no
/// free list — one packet per message queued at a NIC among them
/// ([`crate::nic`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ArenaCheckpoint {
    /// All slots, live and freed (freed slots hold stale packet data that
    /// the next allocation overwrites, exactly as at run time).
    pub slots: Vec<Packet>,
    /// The free list, bottom of the stack first.
    pub free: Vec<u32>,
}

/// Complete mutable state of the simulation in canonical
/// single-shard-equivalent form (see the module docs): entity state in
/// global id order, one merged event set, one packed arena. A
/// single-shard engine's state already is this form; sharded engines
/// reach it through [`merge_shards`] / [`split_for_plan`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// The shard clock (time of the last processed event).
    pub now: SimTime,
    /// Messages generated at NICs.
    pub generated: u64,
    /// Packets injected into the fabric.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped (faults / TTL / exhausted retries).
    pub dropped: u64,
    /// NIC retransmissions performed.
    pub retransmits: u64,
    /// Every router's buffers, credits, link timers and waiter lists.
    pub routers: Vec<RouterState>,
    /// Mutable agent state, parallel to `routers`.
    pub agents: Vec<AgentCheckpoint>,
    /// Every NIC's source queue and credit/link state.
    pub nics: Vec<NicState>,
    /// The pending event set with its sequence counters.
    pub queue: SchedulerCheckpoint,
    /// The packet arena.
    pub arena: ArenaCheckpoint,
    /// The compiled (already quantized) fault schedule.
    pub faults: Vec<CompiledFault>,
    /// Index of the next unapplied fault entry.
    pub fault_cursor: usize,
    /// Retransmit attempts per workload packet id.
    pub retry_counts: BTreeMap<u64, u32>,
    /// Injections distributed by the coordinator but not yet materialised.
    pub pending_injections: VecDeque<QueuedInjection>,
    /// Closed-loop task state per owned node (empty when no workload).
    pub tasks: Vec<Option<NodeTask>>,
    /// Whether a workload was installed.
    pub has_tasks: bool,
}

/// A complete engine snapshot (see [`crate::Engine::checkpoint`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// The engine clock.
    pub now: SimTime,
    /// Next injector-traffic packet id to assign.
    pub next_packet_id: u64,
    /// The one-element injector lookahead (pulled but not yet distributed).
    pub pending_injection: Option<Injection>,
    /// Mutable traffic-injector state.
    pub injector: InjectorCheckpoint,
    /// The simulation state in canonical single-shard-equivalent form.
    /// (The field name predates sharded checkpointing; v1/v2 files — which
    /// were always single-shard — deserialise here unchanged.)
    pub shard: ShardCheckpoint,
}

/// Shard that owns an event's keyed entity under `plan`, or `None` for
/// the `TrafficArrival` markers (which are regenerated from
/// `pending_injections` at restore rather than carried across a
/// re-partition).
fn owner_shard(kind: &EventKind, plan: &ShardPlan, topo: &AnyTopology) -> Option<usize> {
    match *kind {
        EventKind::TrafficArrival => None,
        EventKind::NicTryInject { node }
        | EventKind::NicCredit { node }
        | EventKind::TaskWake { node }
        | EventKind::TaskRecv { node, .. }
        | EventKind::DropNotice { node, .. }
        | EventKind::NicResend { node, .. } => {
            Some(plan.shard_of_router(topo.router_of_node(node)))
        }
        EventKind::RouterArrive { router, .. }
        | EventKind::SwitchAttempt { router, .. }
        | EventKind::OutputAttempt { router, .. }
        | EventKind::CreditArrive { router, .. }
        | EventKind::RlFeedback { router, .. } => Some(plan.shard_of_router(router)),
    }
}

/// Shard that owns one `retry_counts` entry: keys are workload packet
/// ids, which embed the source node (the retry bookkeeping lives with the
/// shard owning that node's NIC).
fn retry_owner(id: u64, plan: &ShardPlan, topo: &AnyTopology) -> usize {
    debug_assert!(
        id & WORKLOAD_ID_BIT != 0,
        "retry_counts keys are workload packet ids"
    );
    let node = NodeId::from_index(((id & !WORKLOAD_ID_BIT) >> WORKLOAD_SEQ_BITS) as usize);
    plan.shard_of_router(topo.router_of_node(node))
}

/// Rewrite every [`PacketRef`] reachable from one shard snapshot —
/// router buffers in id order (inputs then outputs per router), NIC
/// source queues in id order, then `RouterArrive` events in queue order —
/// through `translate`. This walk order defines the canonical arena slot
/// numbering; `Shard::checkpoint`, merge and split all use it, so it must
/// never change without a format-version bump.
pub(crate) fn map_refs(
    ck: &mut ShardCheckpoint,
    translate: &mut impl FnMut(PacketRef) -> PacketRef,
) {
    for router in &mut ck.routers {
        router.map_packet_refs(translate);
    }
    for nic in &mut ck.nics {
        for r in nic.source_queue.iter_mut() {
            *r = translate(*r);
        }
    }
    for ev in &mut ck.queue.events {
        if let EventKind::RouterArrive { packet, .. } = &mut ev.kind {
            *packet = translate(*packet);
        }
    }
}

/// Merge N per-shard snapshots (ascending shard order, mailboxes already
/// drained, arenas packed by `Shard::checkpoint`) into the canonical
/// single-shard-equivalent form.
///
/// `now` is the engine clock (the window-boundary cut time `t_cap`): the
/// per-shard clocks are partition-dependent (each shard's clock lags at
/// its own last local event) and must not leak into the canonical form.
/// Storing `t_cap` instead is safe everywhere the clock is read back:
/// injections re-materialise at `time.max(now)` with every pending
/// injection time beyond the cut, `run_window` re-derives per-event time,
/// and fault quantization puts every unapplied fault at or beyond the cut.
///
/// The shards are joined first — routers, NICs and events in global
/// order, arenas end to end — and the slots then numbered by one
/// [`map_refs`] walk over the union, so a snapshot taken at any shard
/// count has the bytes of the single-shard one.
pub(crate) fn merge_shards(now: SimTime, shards: Vec<ShardCheckpoint>) -> ShardCheckpoint {
    debug_assert!(!shards.is_empty());
    debug_assert!(
        shards
            .windows(2)
            .all(|w| w[0].fault_cursor == w[1].fault_cursor),
        "fault cursors diverged across shards at a window boundary"
    );
    let total: usize = shards.iter().map(|s| s.arena.slots.len()).sum();
    let sharded = shards.len() > 1;

    let mut merged = ShardCheckpoint {
        now,
        faults: shards[0].faults.clone(),
        fault_cursor: shards[0].fault_cursor,
        has_tasks: shards[0].has_tasks,
        ..ShardCheckpoint::default()
    };
    let mut slots: Vec<Packet> = Vec::new();
    let mut pending: Vec<QueuedInjection> = Vec::new();

    for (k, mut s) in shards.into_iter().enumerate() {
        debug_assert!(s.arena.free.is_empty(), "shard arenas come packed");
        // Each shard's refs move past the slots of the shards before it.
        let base = u32::try_from(slots.len()).expect("u32 packet refs");
        if base > 0 {
            map_refs(&mut s, &mut |r| PacketRef(r.0 + base));
        }
        if k == 0 {
            slots = std::mem::take(&mut s.arena.slots);
            slots.reserve_exact(total - slots.len());
        } else {
            slots.append(&mut s.arena.slots);
        }

        merged.generated += s.generated;
        merged.injected += s.injected;
        merged.delivered += s.delivered;
        merged.dropped += s.dropped;
        merged.retransmits += s.retransmits;
        merged.routers.append(&mut s.routers);
        merged.agents.append(&mut s.agents);
        merged.nics.append(&mut s.nics);
        merged.tasks.append(&mut s.tasks);
        merged.queue.popped += s.queue.popped;
        merged
            .queue
            .events
            .extend(s.queue.events.into_iter().filter(|e| {
                // Markers are regenerated from pending_injections at
                // restore; carrying them would double-schedule.
                !matches!(e.kind, EventKind::TrafficArrival)
            }));
        // Disjoint key spaces: each shard only tracks retries for the
        // workload ids of its own source nodes.
        merged.retry_counts.extend(s.retry_counts);
        pending.extend(s.pending_injections);
    }

    // Entity-embedding keys make cross-shard `(time, key)` ties
    // impossible, so the merged order is total and re-sequencing by
    // merged position reproduces exactly the tie-break a single-shard
    // run would have used.
    merged
        .queue
        .events
        .sort_unstable_by_key(|e| (e.time, e.key, e.seq));
    for (i, ev) in merged.queue.events.iter_mut().enumerate() {
        ev.seq = i as u64;
    }
    merged.queue.next_seq = merged.queue.events.len() as u64;

    // Injections were distributed by the coordinator in global id order;
    // ids are assigned sequentially, so sorting by id restores it.
    pending.sort_unstable_by_key(|q| q.id);
    merged.pending_injections = pending.into();

    // Slot `i` of the canonical arena is the `i`-th ref the walk meets. A
    // single shard's arena is packed in this walk's order already.
    if sharded {
        let mut order: Vec<u32> = Vec::with_capacity(slots.len());
        map_refs(&mut merged, &mut |r| {
            order.push(r.0);
            PacketRef(order.len() as u32 - 1)
        });
        debug_assert_eq!(order.len(), slots.len(), "the walk meets every slot once");
        permute(&mut slots, &mut order);
    }
    merged.arena.slots = slots;
    merged
}

/// Rearrange `slots` so that slot `i` holds what slot `order[i]` held, in
/// place: each cycle of the permutation is rotated by swaps (`order` is
/// used up as the record of what is placed).
fn permute(slots: &mut [Packet], order: &mut [u32]) {
    const PLACED: u32 = u32::MAX;
    for start in 0..slots.len() {
        let mut i = start;
        while order[i] != PLACED {
            let from = std::mem::replace(&mut order[i], PLACED) as usize;
            if from == start {
                break;
            }
            slots.swap(i, from);
            i = from;
        }
    }
}

/// Split the canonical single-shard-equivalent snapshot into one
/// [`ShardCheckpoint`] per shard of `plan` — the inverse of
/// [`merge_shards`], for any target partition (including the identity
/// single-shard plan).
///
/// Global counters and the pop counter are carried whole on shard 0:
/// only their sums are observable (per-shard counter splits are a
/// partition artifact, not simulation state). Event sequence numbers are
/// kept canonical — per-shard queues share the canonical `next_seq`, so
/// newly pushed events sequence after every restored one on any shard.
pub(crate) fn split_for_plan(
    canonical: &ShardCheckpoint,
    plan: &ShardPlan,
    topo: &AnyTopology,
) -> Vec<ShardCheckpoint> {
    let n = plan.num_shards();
    (0..n)
        .map(|k| {
            let domains = plan.domains_of(k);
            let routers = topo.router_range_of_domain(domains.start).start
                ..topo.router_range_of_domain(domains.end - 1).end;
            let nodes = topo.node_range_of_domain(domains.start).start
                ..topo.node_range_of_domain(domains.end - 1).end;

            let mut part = ShardCheckpoint {
                now: canonical.now,
                generated: if k == 0 { canonical.generated } else { 0 },
                injected: if k == 0 { canonical.injected } else { 0 },
                delivered: if k == 0 { canonical.delivered } else { 0 },
                dropped: if k == 0 { canonical.dropped } else { 0 },
                retransmits: if k == 0 { canonical.retransmits } else { 0 },
                routers: canonical.routers[routers.clone()].to_vec(),
                agents: canonical.agents[routers].to_vec(),
                nics: canonical.nics[nodes.clone()].to_vec(),
                queue: SchedulerCheckpoint {
                    events: canonical
                        .queue
                        .events
                        .iter()
                        .filter(|e| owner_shard(&e.kind, plan, topo) == Some(k))
                        .copied()
                        .collect(),
                    next_seq: canonical.queue.next_seq,
                    popped: if k == 0 { canonical.queue.popped } else { 0 },
                },
                arena: ArenaCheckpoint::default(),
                faults: canonical.faults.clone(),
                fault_cursor: canonical.fault_cursor,
                retry_counts: canonical
                    .retry_counts
                    .iter()
                    .filter(|(id, _)| retry_owner(**id, plan, topo) == k)
                    .map(|(id, c)| (*id, *c))
                    .collect(),
                pending_injections: canonical
                    .pending_injections
                    .iter()
                    .filter(|inj| plan.shard_of_router(topo.router_of_node(inj.src)) == k)
                    .copied()
                    .collect(),
                tasks: if canonical.tasks.is_empty() {
                    Vec::new()
                } else {
                    canonical.tasks[nodes].to_vec()
                },
                has_tasks: canonical.has_tasks,
            };

            // Re-allocate this shard's packets into a local arena by the
            // canonical walk order (ascending slot indices, no free list):
            // router packets, then one run of NIC packets, then event
            // packets — the layout `Shard::restore` takes the NIC run from.
            let mut slots: Vec<Packet> = Vec::new();
            let mut translate = |r: PacketRef| -> PacketRef {
                let local = PacketRef(slots.len() as u32);
                slots.push(canonical.arena.slots[r.index()].clone());
                local
            };
            map_refs(&mut part, &mut translate);
            part.arena = ArenaCheckpoint {
                slots,
                free: Vec::new(),
            };
            part
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::Engine;
    use crate::fault::{CompiledFault, FaultOp, FaultSchedule};
    use crate::injector::{Injection, ScriptedInjector};
    use crate::observer::CountingObserver;
    use crate::testing::MinimalTestRouting;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::ids::{NodeId, RouterId};
    use dragonfly_topology::Dragonfly;

    /// A tiny-Dragonfly engine in the given execution mode, with
    /// deterministic scripted traffic and a router kill/restore pair
    /// straddling the checkpoint time used by the tests.
    fn faulted_engine_with(
        shards: crate::config::ShardKind,
        pipeline: bool,
    ) -> Engine<CountingObserver> {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes() as u64;
        let script: Vec<Injection> = (0..600u64)
            .map(|i| {
                let src = i.wrapping_mul(7) % n;
                let mut dst = i.wrapping_mul(13).wrapping_add(5) % n;
                if dst == src {
                    dst = (dst + 1) % n;
                }
                Injection {
                    time: i * 211,
                    src: NodeId::from_index(src as usize),
                    dst: NodeId::from_index(dst as usize),
                }
            })
            .collect();
        let algo = MinimalTestRouting;
        let mut cfg = EngineConfig::paper(crate::routing::RoutingAlgorithm::num_vcs(&algo));
        cfg.shards = shards;
        cfg.pipeline = pipeline;
        let mut engine = Engine::new(
            topo,
            cfg,
            &algo,
            Box::new(ScriptedInjector::new(script)),
            CountingObserver::default(),
            7,
        );
        engine.install_faults(&FaultSchedule {
            events: vec![
                CompiledFault {
                    at_ns: 30_000,
                    ops: vec![FaultOp::RouterDown {
                        router: RouterId(1),
                    }],
                },
                CompiledFault {
                    at_ns: 250_000,
                    ops: vec![FaultOp::RouterUp {
                        router: RouterId(1),
                    }],
                },
            ],
        });
        engine
    }

    /// The single-shard sequential fixture the original tests use.
    fn faulted_engine() -> Engine<CountingObserver> {
        faulted_engine_with(crate::config::ShardKind::Single, false)
    }

    /// Aggregate counters that are comparable across shard counts (the
    /// full [`crate::EngineStats`] embeds per-shard drain state, which is
    /// partition-dependent by construction).
    fn global_counts(e: &Engine<CountingObserver>) -> (u64, u64, u64, u64, u64) {
        let s = e.stats();
        (
            s.generated,
            s.injected,
            s.delivered,
            s.dropped,
            s.retransmits,
        )
    }

    #[test]
    fn sharded_checkpoint_resumes_bit_identically_at_any_shard_count() {
        use crate::config::ShardKind;
        // Uninterrupted single-shard reference.
        let mut reference = faulted_engine();
        reference.run_to_drain(2_000_000);
        let ref_counts = global_counts(&reference);
        let ref_obs = reference.merged_observer();
        assert!(reference.stats().dropped > 0, "the router kill must bite");

        // Checkpoint a 4-shard pipelined run mid-fault (kill applied,
        // restore pending), then resume under every execution mode the
        // acceptance matrix names: 1 shard sequential, 2 shards lockstep,
        // 4 shards pipelined.
        let mut first = faulted_engine_with(ShardKind::Fixed(4), true);
        assert_eq!(first.num_shards(), 4);
        first.run_until(90_000);
        let obs_at_cut = first.merged_observer();
        let ck = first.checkpoint();
        assert_eq!(ck.shard.fault_cursor, 1, "kill applied, restore pending");
        let json = serde_json::to_string(&ck).expect("checkpoint serializes");
        let back: EngineCheckpoint = serde_json::from_str(&json).expect("checkpoint deserializes");

        for (shards, pipeline) in [
            (ShardKind::Single, false),
            (ShardKind::Fixed(2), false),
            (ShardKind::Fixed(4), true),
        ] {
            let mut resumed = faulted_engine_with(shards, pipeline);
            resumed.restore(&back);
            resumed.seed_observer(obs_at_cut);
            resumed.run_to_drain(2_000_000);
            assert_eq!(
                global_counts(&resumed),
                ref_counts,
                "counters diverged resuming at {shards:?} pipeline={pipeline}"
            );
            assert_eq!(
                resumed.now(),
                reference.now(),
                "finish time diverged at {shards:?} pipeline={pipeline}"
            );
            assert_eq!(
                resumed.merged_observer(),
                ref_obs,
                "observer diverged at {shards:?} pipeline={pipeline}"
            );
        }
    }

    #[test]
    fn single_shard_checkpoint_resumes_on_a_sharded_engine() {
        use crate::config::ShardKind;
        let mut reference = faulted_engine();
        reference.run_to_drain(2_000_000);

        let mut first = faulted_engine();
        first.run_until(90_000);
        let obs = *first.observer();
        let ck = first.checkpoint();

        let mut resumed = faulted_engine_with(ShardKind::Fixed(2), true);
        resumed.restore(&ck);
        resumed.seed_observer(obs);
        resumed.run_to_drain(2_000_000);
        assert_eq!(global_counts(&resumed), global_counts(&reference));
        assert_eq!(resumed.merged_observer(), reference.merged_observer());
    }

    #[test]
    fn legacy_checkpoints_with_stray_arrival_markers_still_restore() {
        use crate::event::{Event, EventKind};
        // Pre-v3 files restored their queue verbatim, so a file written
        // by an older build may carry `TrafficArrival` markers (key 0).
        // The v3 restore path strips markers and regenerates them from
        // the pending-injection FIFO; a stray marker from a legacy file
        // must therefore vanish rather than corrupt the resumed run.
        let mut reference = faulted_engine();
        reference.run_to_drain(2_000_000);

        let mut first = faulted_engine();
        first.run_until(90_000);
        let obs = *first.observer();
        let mut ck = first.checkpoint();
        ck.shard.queue.events.insert(
            0,
            Event {
                time: 100_000,
                key: 0,
                seq: ck.shard.queue.next_seq,
                kind: EventKind::TrafficArrival,
            },
        );
        ck.shard
            .queue
            .events
            .sort_unstable_by_key(|e| (e.time, e.key, e.seq));
        ck.shard.queue.next_seq += 1;

        let mut resumed = faulted_engine();
        resumed.restore(&ck);
        *resumed.observer_mut() = obs;
        resumed.run_to_drain(2_000_000);
        assert_eq!(global_counts(&resumed), global_counts(&reference));
        assert_eq!(*resumed.observer(), *reference.observer());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_across_a_fault() {
        // Reference: one uninterrupted run.
        let mut reference = faulted_engine();
        reference.run_to_drain(2_000_000);
        let ref_stats = reference.stats();
        let ref_obs = *reference.observer();
        assert!(ref_stats.dropped > 0, "the router kill must actually bite");
        assert!(ref_stats.delivered > 0);

        // Interrupted run: stop while the router is still dead (kill
        // applied, restore pending), so resume must replay the liveness
        // prefix and keep the un-applied tail of the schedule.
        let mut first = faulted_engine();
        first.run_until(90_000);
        let ck = first.checkpoint();
        let json = serde_json::to_string(&ck).expect("checkpoint serializes");
        let back: EngineCheckpoint = serde_json::from_str(&json).expect("checkpoint deserializes");
        assert_eq!(back.now, ck.now);
        assert_eq!(back.shard.fault_cursor, 1, "kill applied, restore pending");

        let mut resumed = faulted_engine();
        resumed.restore(&back);
        // The engine checkpoint deliberately excludes the observer (the
        // sim layer snapshots its collector separately); carry it over.
        *resumed.observer_mut() = *first.observer();
        resumed.run_to_drain(2_000_000);

        assert_eq!(resumed.stats(), ref_stats, "stats diverged after resume");
        assert_eq!(resumed.now(), reference.now(), "finish time diverged");
        assert_eq!(*resumed.observer(), ref_obs, "observer diverged");
    }

    #[test]
    fn checkpoint_before_any_event_resumes_the_whole_run() {
        let mut reference = faulted_engine();
        reference.run_to_drain(2_000_000);

        let first = faulted_engine();
        let ck = first.checkpoint();
        let mut resumed = faulted_engine();
        resumed.restore(&ck);
        resumed.run_to_drain(2_000_000);
        assert_eq!(resumed.stats(), reference.stats());
        assert_eq!(*resumed.observer(), *reference.observer());
    }

    #[test]
    fn repeated_checkpoints_compose() {
        // Checkpoint → resume → checkpoint again → resume again must equal
        // the uninterrupted run (the --checkpoint-every use case).
        let mut reference = faulted_engine();
        reference.run_to_drain(2_000_000);

        let mut leg = faulted_engine();
        leg.run_until(60_000);
        let ck1 = leg.checkpoint();
        let obs1 = *leg.observer();

        let mut leg2 = faulted_engine();
        leg2.restore(&ck1);
        *leg2.observer_mut() = obs1;
        leg2.run_until(300_000);
        let ck2 = leg2.checkpoint();
        let obs2 = *leg2.observer();

        let mut leg3 = faulted_engine();
        leg3.restore(&ck2);
        *leg3.observer_mut() = obs2;
        leg3.run_to_drain(2_000_000);

        assert_eq!(leg3.stats(), reference.stats());
        assert_eq!(*leg3.observer(), *reference.observer());
    }
}
