//! Checkpoint/resume of a running engine — sequential, sharded, or
//! pipelined.
//!
//! A checkpoint is a complete, serialisable snapshot of the simulation
//! state between two [`crate::Engine::run_until`] calls: router buffers,
//! the fabric packets, the NIC backlog, the pending event set (with its
//! sequence counters, so tie-breaking stays identical), the fault schedule
//! cursor, closed-loop task counters, and the mutable state of every
//! routing agent and of the traffic injector (RNG streams, Q-tables, heap
//! positions). It stores state, not derivations: a packet's fields that
//! the topology gives, a queued message's packet and a rank's compiled
//! program are rebuilt at restore, not written.
//!
//! Restoring a checkpoint into a freshly built engine — same topology,
//! configuration, routing algorithm, injector kind and seed — resumes the
//! run **bit-for-bit**: the resumed half produces exactly the events, in
//! exactly the order, that the uninterrupted run would have produced. The
//! mode matrices (`tests/mode_matrix/` here and in `dragonfly-sim`) pin
//! this down to the final snapshot and the full report.
//!
//! # The canonical form and its walk
//!
//! Every engine checkpoints into the **same** [`ShardCheckpoint`], whatever
//! its shard count. Between two `run_until` calls every shard sits at the
//! same window boundary (the engine clock `t_cap`) with all cross-shard
//! mail delivered, so the union of the shard states is a globally
//! consistent cut. The snapshot holds entity state in global id order, one
//! event set in `(time, key, seq)` order re-sequenced `0..n`, summed
//! counters, the pending injections in id order, and three sections of
//! their own:
//!
//! * the **arena** ([`ArenaCheckpoint`]): the fabric packets as columns,
//!   exactly the packets the **canonical walk** meets, slot `i` the `i`-th;
//! * the **backlog** ([`BacklogCheckpoint`]): the `(id, dst, created_ns)`
//!   of every message queued at a NIC, in global node order, oldest first,
//!   each NIC's [`NicState::queued`] saying how many are its;
//! * the **tasks**: each rank's counters ([`NodeTask`]), without its
//!   program, which restore keeps from the spec.
//!
//! The walk, which `Engine::checkpoint` writes by and `Shard::restore`
//! reads by, never changes without a format-version bump:
//!
//! 1. every router buffer, in global router order — per router the input
//!    cells, then the output cells, in `(port, vc)` order
//!    ([`crate::router::RouterState::map_packet_refs`]);
//! 2. then the packet of every `RouterArrive` event, in event order.
//!
//! The writer visits the shards in ascending order, whose router and node
//! ranges ascend ([`crate::sync::ShardPlan`]), so one pass follows phase 1
//! and the node order of the backlog together; each packet of phase 2 is
//! read from the shard that holds it, `owner_shard`. One code path gives
//! every shard count the single-shard bytes. Restore reads the canonical
//! form in place: each shard of **any** target plan takes its share — its
//! router and node ranges, its NICs' stretch of the backlog, the events
//! (`owner_shard`) and pending injections it owns, its retry entries
//! (`retry_owner`) — straight from the borrowed snapshot into the fresh
//! engine's own routers, agents, NICs, backlog, queue and arena, following
//! the walk over its share, so a restore holds the snapshot and the engine
//! it fills, nothing more. A snapshot taken at `shards = N` therefore
//! resumes bit-identically at `shards = M` for any `M`, pipeline on or off.
//!
//! Event keys are content-derived and embed the owning entity, so two
//! events from different shards can never tie on `(time, key)`, and
//! re-sequencing by position keeps tie-breaking deterministic.
//! `TrafficArrival` markers (one per pending injection) are left out and
//! regenerated from `pending_injections` at restore, which keeps the
//! marker↔FIFO correspondence intact across re-partitioning; a snapshot
//! that holds one is refused by [`crate::Engine::check_restorable`].
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

use crate::event::{EventKind, SchedulerCheckpoint};
use crate::fault::CompiledFault;
use crate::injector::Injection;
use crate::nic::{NicState, Queued};
use crate::router::RouterState;
use crate::sync::{QueuedInjection, ShardPlan};
use crate::time::SimTime;
use crate::workload::{workload_source, NodeTask};
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
    /// tables. Restoring the listed rows into a fresh paged table
    /// reproduces the learned values and the set of stored rows. Snapshots
    /// written while the table's unit was a 64-row page list whole pages,
    /// page-mates at their init values; they restore the same way.
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

/// The fabric packets of a snapshot, one column per field a [`Packet`]
/// stores and cannot derive: exactly the packets the canonical walk meets,
/// in walk order, entry `i` of every column the `i`-th (the slot a
/// [`PacketRef`] in a router buffer or a `RouterArrive` event names). Ids,
/// ports and routes are stored as the packet stores them: `u32::MAX` and
/// `u16::MAX` mean none, and `flags` holds the route mode, the `via` kind
/// and the route bits ([`crate::packet`]). Restore derives `dst_router`,
/// `dst_group` and `src_slot` again from `dst` and `src`.
///
/// [`Packet`]: crate::packet::Packet
/// [`PacketRef`]: crate::arena::PacketRef
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ArenaCheckpoint {
    /// Packet ids.
    pub id: Vec<u64>,
    /// Generating nodes.
    pub src: Vec<NodeId>,
    /// Destination nodes.
    pub dst: Vec<NodeId>,
    /// Generation times.
    pub created_ns: Vec<SimTime>,
    /// Injection times.
    pub injected_ns: Vec<SimTime>,
    /// Times of the previous router's forwarding decision.
    pub last_decision_ns: Vec<SimTime>,
    /// Previous routers.
    pub last_router: Vec<u32>,
    /// The output ports the previous routers used.
    pub last_out_port: Vec<u16>,
    /// Valiant intermediate groups or routers.
    pub via: Vec<u32>,
    /// Output ports of the decisions cached at the current routers.
    pub pending_port: Vec<u16>,
    /// VCs of those decisions.
    pub pending_vc: Vec<u8>,
    /// Router-to-router hops taken.
    pub hops: Vec<u8>,
    /// Current virtual channels.
    pub vc: Vec<u8>,
    /// Route mode, `via` kind and route bits.
    pub flags: Vec<u8>,
}

impl ArenaCheckpoint {
    /// Empty columns with room for exactly `n` packets.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            id: Vec::with_capacity(n),
            src: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            created_ns: Vec::with_capacity(n),
            injected_ns: Vec::with_capacity(n),
            last_decision_ns: Vec::with_capacity(n),
            last_router: Vec::with_capacity(n),
            last_out_port: Vec::with_capacity(n),
            via: Vec::with_capacity(n),
            pending_port: Vec::with_capacity(n),
            pending_vc: Vec::with_capacity(n),
            hops: Vec::with_capacity(n),
            vc: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
        }
    }

    /// Packets held: the length of the `id` column.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// Whether no packet is held.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Every column's name and length, `id` first.
    pub(crate) fn column_lens(&self) -> [(&'static str, usize); 14] {
        [
            ("id", self.id.len()),
            ("src", self.src.len()),
            ("dst", self.dst.len()),
            ("created_ns", self.created_ns.len()),
            ("injected_ns", self.injected_ns.len()),
            ("last_decision_ns", self.last_decision_ns.len()),
            ("last_router", self.last_router.len()),
            ("last_out_port", self.last_out_port.len()),
            ("via", self.via.len()),
            ("pending_port", self.pending_port.len()),
            ("pending_vc", self.pending_vc.len()),
            ("hops", self.hops.len()),
            ("vc", self.vc.len()),
            ("flags", self.flags.len()),
        ]
    }
}

/// The messages queued at NICs, one column per field of a backlog record
/// ([`crate::nic`]): every NIC's messages in global node order, each NIC's
/// oldest first. [`NicState::queued`] says how many are whose.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BacklogCheckpoint {
    /// Packet ids.
    pub id: Vec<u64>,
    /// Destination nodes.
    pub dst: Vec<NodeId>,
    /// Generation times.
    pub created_ns: Vec<SimTime>,
}

impl BacklogCheckpoint {
    /// Empty columns with room for exactly `n` messages.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            id: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            created_ns: Vec::with_capacity(n),
        }
    }

    /// Append one message.
    pub(crate) fn push(&mut self, msg: Queued) {
        self.id.push(msg.id);
        self.dst.push(msg.dst);
        self.created_ns.push(msg.created_ns);
    }

    /// Message `i`.
    pub(crate) fn get(&self, i: usize) -> Queued {
        Queued {
            id: self.id[i],
            dst: self.dst[i],
            created_ns: self.created_ns[i],
        }
    }

    /// Messages held: the length of the `id` column.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// Whether no message is held.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Every column's name and length, `id` first.
    pub(crate) fn column_lens(&self) -> [(&'static str, usize); 3] {
        [
            ("id", self.id.len()),
            ("dst", self.dst.len()),
            ("created_ns", self.created_ns.len()),
        ]
    }
}

/// Complete mutable state of the simulation in canonical
/// single-shard-equivalent form (see the module docs): entity state in
/// global id order, one event set, one arena packed by the canonical walk.
/// `Engine::checkpoint` writes it in one walk over the shards, and each
/// shard restores its share of it in place (`Shard::restore`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// The engine clock at the cut: the window boundary `t_cap`, not a
    /// shard clock (each lags at its own last event, which depends on the
    /// partition). Every pending injection, event and unapplied fault lies
    /// at or beyond it, so the resumed run reads it back unchanged.
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
    /// Every NIC's queued-message count and credit/link state.
    pub nics: Vec<NicState>,
    /// The messages queued at the NICs.
    pub backlog: BacklogCheckpoint,
    /// The pending event set with its sequence counters.
    pub queue: SchedulerCheckpoint,
    /// The fabric packets.
    pub arena: ArenaCheckpoint,
    /// The compiled (already quantized) fault schedule.
    pub faults: Vec<CompiledFault>,
    /// Index of the next unapplied fault entry.
    pub fault_cursor: usize,
    /// Retransmit attempts per workload packet id.
    pub retry_counts: BTreeMap<u64, u32>,
    /// Injections distributed by the coordinator but not yet materialised.
    pub pending_injections: VecDeque<QueuedInjection>,
    /// Closed-loop task counters per node (empty when no workload).
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
    /// The simulation state in canonical single-shard-equivalent form
    /// (the field name predates sharded checkpointing).
    pub shard: ShardCheckpoint,
}

/// Shard that owns an event's keyed entity under `plan`, or `None` for
/// the `TrafficArrival` markers (which are regenerated from
/// `pending_injections` at restore rather than carried across a
/// re-partition).
pub(crate) fn owner_shard(kind: &EventKind, plan: &ShardPlan, topo: &AnyTopology) -> Option<usize> {
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
pub(crate) fn retry_owner(id: u64, plan: &ShardPlan, topo: &AnyTopology) -> usize {
    let node = workload_source(id).expect("retry_counts keys are workload packet ids");
    plan.shard_of_router(topo.router_of_node(NodeId::from_index(node as usize)))
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
        let obs = first.merged_observer();
        let ck = first.checkpoint();

        let mut resumed = faulted_engine_with(ShardKind::Fixed(2), true);
        resumed.restore(&ck);
        resumed.seed_observer(obs);
        resumed.run_to_drain(2_000_000);
        assert_eq!(global_counts(&resumed), global_counts(&reference));
        assert_eq!(resumed.merged_observer(), reference.merged_observer());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_across_a_fault() {
        // Reference: one uninterrupted run.
        let mut reference = faulted_engine();
        reference.run_to_drain(2_000_000);
        let ref_stats = reference.stats();
        let ref_obs = reference.merged_observer();
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
        resumed.seed_observer(first.merged_observer());
        resumed.run_to_drain(2_000_000);

        assert_eq!(resumed.stats(), ref_stats, "stats diverged after resume");
        assert_eq!(resumed.now(), reference.now(), "finish time diverged");
        assert_eq!(resumed.merged_observer(), ref_obs, "observer diverged");
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
        assert_eq!(resumed.merged_observer(), reference.merged_observer());
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
        let obs1 = leg.merged_observer();

        let mut leg2 = faulted_engine();
        leg2.restore(&ck1);
        leg2.seed_observer(obs1);
        leg2.run_until(300_000);
        let ck2 = leg2.checkpoint();
        let obs2 = leg2.merged_observer();

        let mut leg3 = faulted_engine();
        leg3.restore(&ck2);
        leg3.seed_observer(obs2);
        leg3.run_to_drain(2_000_000);

        assert_eq!(leg3.stats(), reference.stats());
        assert_eq!(leg3.merged_observer(), reference.merged_observer());
    }
}
