//! The interface between the engine and routing algorithms.
//!
//! Every router in the simulated system owns one [`RouterAgent`]. The engine
//! consults the agent whenever a packet needs an output port, and delivers
//! per-hop reinforcement-learning feedback to it. The agent only ever sees
//! *local* information — its own router's output-queue occupancy and credit
//! counters, exposed through [`RouterCtx`] — which mirrors the paper's fully
//! distributed setting (no shared state between routers).

use crate::config::EngineConfig;
use crate::packet::Packet;
use crate::router::RouterState;
use crate::time::SimTime;
use dragonfly_topology::ids::{GroupId, NodeId, Port, RouterId};
use dragonfly_topology::ports::PortKind;
use dragonfly_topology::{AnyTopology, Topology};
use serde::{Deserialize, Serialize};

/// The outcome of a routing decision: which output port to use and which
/// virtual channel the packet should occupy on the next link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Output port of the current router.
    pub port: Port,
    /// Virtual channel for the next hop.
    pub vc: u8,
}

/// Per-hop reinforcement-learning feedback, sent from a router back to the
/// upstream router that forwarded the packet to it.
///
/// In hardware this information would be piggy-backed on credit/flow-control
/// flits; in the simulator it is delivered as an event after one link
/// latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeedbackMsg {
    /// Id of the packet the feedback refers to. Identifies the feedback
    /// uniquely among same-tick deliveries to one router, which is what
    /// gives feedback events a deterministic processing order (Q-table
    /// updates do not commute) — see [`crate::event::event_key`].
    pub packet_id: u64,
    /// Source node of the packet the feedback refers to.
    pub src: NodeId,
    /// Destination node of the packet.
    pub dst: NodeId,
    /// Destination router of the packet (row of the original Q-table).
    pub dst_router: RouterId,
    /// Destination group (first index of the two-level Q-table row).
    pub dst_group: GroupId,
    /// Source-node slot in `0..p` (second index of the two-level Q-table
    /// row).
    pub src_slot: u8,
    /// The output port the *upstream* router used for this packet — the
    /// Q-table column to update.
    pub port: Port,
    /// The reward: packet travelling time between the two routers
    /// (decision-to-decision), in ns.
    pub reward_ns: f64,
    /// The downstream router's own estimate of the remaining delivery time
    /// (its minimum Q-value for this packet, or the ejection time if the
    /// downstream router is the destination), in ns.
    pub downstream_estimate_ns: f64,
}

/// Read-only view of a router's local state, handed to agents when they
/// make decisions.
pub struct RouterCtx<'a> {
    /// The router this context describes.
    pub router: RouterId,
    /// The topology (shared, immutable).
    pub topology: &'a AnyTopology,
    /// Engine configuration (timing constants, buffer sizes).
    pub config: &'a EngineConfig,
    /// Current simulation time.
    pub now: SimTime,
    pub(crate) state: &'a RouterState,
}

impl<'a> RouterCtx<'a> {
    /// Total output-queue occupancy (packets) of a port, summed over VCs.
    pub fn output_queue_len(&self, port: Port) -> usize {
        self.state.output_queue_len(port)
    }

    /// Credits currently held for `(port, vc)` — i.e. free slots in the
    /// downstream input buffer.
    pub fn credits(&self, port: Port, vc: u8) -> usize {
        self.state.credits(port, vc)
    }

    /// Credits already consumed on a port (summed over VCs): the number of
    /// packets in flight to, or buffered at, the downstream router.
    pub fn used_credits(&self, port: Port) -> usize {
        self.state.used_credits(port, self.config)
    }

    /// The congestion estimate the paper's adaptive baselines use: local
    /// output-queue occupancy plus used credit count.
    pub fn congestion(&self, port: Port) -> usize {
        if self.topology.port_kind(self.router, port) == PortKind::Host {
            return self.output_queue_len(port);
        }
        self.output_queue_len(port) + self.used_credits(port)
    }

    /// Locality domain of this router (a Dragonfly group, fat-tree pod
    /// or HyperX row).
    pub fn domain(&self) -> GroupId {
        self.topology.domain_of_router(self.router)
    }

    /// Number of virtual channels available.
    pub fn num_vcs(&self) -> usize {
        self.config.num_vcs
    }

    /// Whether an output port of this router is currently alive (fault
    /// injection can kill links and routers mid-run). Algorithms must not
    /// route onto dead ports; see [`live_fallback_port`].
    pub fn port_up(&self, port: Port) -> bool {
        self.topology.port_up(self.router, port)
    }

    /// Deterministic hash-fallback among the *live* fabric ports of this
    /// router, for when an algorithm's preferred port is dead: spreads
    /// stranded traffic without consuming any agent RNG (so the RNG
    /// streams of faulted and un-faulted runs stay aligned until the
    /// fault actually bites). Returns `None` during a total blackout —
    /// the engine then drops the packet.
    pub fn live_fallback_port(&self, packet: &Packet) -> Option<Port> {
        let host_ports = self.topology.host_ports(self.router);
        let radix = self.topology.radix(self.router);
        let live: Vec<Port> = (host_ports..radix)
            .map(Port::from_index)
            .filter(|&p| self.port_up(p))
            .collect();
        if live.is_empty() {
            return None;
        }
        let pick = (packet.id as usize).wrapping_add(packet.hops as usize) % live.len();
        Some(live[pick])
    }
}

/// The penalty (in ns) a learning agent applies to a Q-table entry whose
/// port turned out to be dead: large enough to steer future decisions away
/// immediately, small enough not to destroy the table's scale.
pub const DEAD_PORT_PENALTY_NS: f64 = 1.0e7;

/// The default virtual-channel assignment used by all algorithms in this
/// repository: the VC index equals the number of hops already taken, capped
/// at the algorithm's VC budget. Incrementing the VC every hop breaks
/// channel-dependency cycles for the bounded-length paths all implemented
/// algorithms produce.
#[inline]
pub fn vc_for_next_hop(packet: &Packet, num_vcs: usize) -> u8 {
    (packet.hops as usize).min(num_vcs.saturating_sub(1)) as u8
}

/// A per-router routing agent.
///
/// Agents are created once per router by a [`RoutingAlgorithm`] and live for
/// the whole simulation. They may keep arbitrary private state (Q-tables,
/// RNGs, counters) but must not share state with other agents.
pub trait RouterAgent: Send {
    /// Choose an output port (and next-hop VC) for `packet`, currently at
    /// the head of an input buffer of this router. The engine only calls
    /// this when the packet's destination router is *not* this router
    /// (ejection is handled by the engine).
    fn decide(&mut self, ctx: &RouterCtx<'_>, packet: &mut Packet) -> Decision;

    /// This router's own estimate (in ns) of the remaining delivery time of
    /// `packet` from here, used as the bootstrap value in the feedback sent
    /// to the upstream router. Non-learning algorithms may return 0.
    fn estimate(&self, ctx: &RouterCtx<'_>, packet: &Packet) -> f64;

    /// Like [`RouterAgent::estimate`], but called right after this router
    /// has chosen `decision` for the packet. Learning agents should return
    /// the value of the action they are actually taking (a SARSA-style
    /// on-policy bootstrap): downstream routers are usually *forced* to
    /// forward minimally, so reporting the row minimum would overestimate
    /// their options and hide congestion from upstream routers.
    fn estimate_after_decision(
        &self,
        ctx: &RouterCtx<'_>,
        packet: &Packet,
        decision: Decision,
    ) -> f64 {
        let _ = decision;
        self.estimate(ctx, packet)
    }

    /// Reinforcement-learning feedback from a downstream router about a
    /// packet this router forwarded earlier. Non-learning algorithms ignore
    /// it.
    fn feedback(&mut self, msg: &FeedbackMsg) {
        let _ = msg;
    }

    /// Capture the agent's mutable state (RNG stream, Q-tables, counters)
    /// for a checkpoint (see [`crate::checkpoint`]). Everything rebuilt by
    /// the algorithm factory from `(topology, config, seed)` must be left
    /// out; stateless agents keep the default.
    fn save_state(&self) -> crate::checkpoint::AgentCheckpoint {
        crate::checkpoint::AgentCheckpoint::default()
    }

    /// Restore state captured by [`RouterAgent::save_state`] on an agent
    /// freshly built by the same factory for the same router and seed.
    fn load_state(&mut self, _state: &crate::checkpoint::AgentCheckpoint) {}

    /// Whether [`RouterAgent::load_state`] can take `state`. A snapshot
    /// read from a file decodes into any shape; an agent whose restore
    /// indexes by what the snapshot says (Q-row lists, table lengths)
    /// refuses a bad one here, naming the field, so that
    /// [`crate::Engine::check_restorable`] can answer before anything is
    /// restored.
    fn check_state(&self, _state: &crate::checkpoint::AgentCheckpoint) -> Result<(), String> {
        Ok(())
    }

    /// Approximate heap footprint of this agent's learned state in bytes
    /// (Q-tables, caches). Rolled up by `Engine::memory_bytes` into the
    /// bounded-memory accounting of the scale benches; stateless agents
    /// keep the default.
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// Factory for router agents — one implementation per routing algorithm.
pub trait RoutingAlgorithm: Send + Sync {
    /// Human-readable algorithm name (used in reports and plots).
    fn name(&self) -> String;

    /// The number of virtual channels the algorithm requires
    /// (MIN 2, VALg 3, VALn/UGALn 4, PAR 5, Q-adaptive 5, ...).
    fn num_vcs(&self) -> usize;

    /// Create the agent for one router.
    fn make_agent(
        &self,
        topology: &AnyTopology,
        config: &EngineConfig,
        router: RouterId,
        seed: u64,
    ) -> Box<dyn RouterAgent>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::Dragonfly;

    fn dummy_packet(hops: u8) -> Packet {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let mut p = Packet::new(&topo, 0, NodeId(0), NodeId(4), 0);
        p.hops = hops;
        p
    }

    #[test]
    fn vc_assignment_increments_and_caps() {
        assert_eq!(vc_for_next_hop(&dummy_packet(0), 5), 0);
        assert_eq!(vc_for_next_hop(&dummy_packet(3), 5), 3);
        assert_eq!(vc_for_next_hop(&dummy_packet(9), 5), 4);
        assert_eq!(vc_for_next_hop(&dummy_packet(9), 2), 1);
        assert_eq!(vc_for_next_hop(&dummy_packet(0), 1), 0);
    }
}
