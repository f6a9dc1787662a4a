//! The topology abstraction: everything the engine, the routing
//! algorithms and the experiment harness need to know about *any*
//! interconnect fabric, expressed as one trait.
//!
//! A [`Topology`] describes
//!
//! * the entities — compute nodes, routers and their per-router port
//!   layouts (host ports first, then "fabric" ports);
//! * the wiring — [`Topology::neighbor`] resolves what sits on the far
//!   side of every port;
//! * minimal and non-minimal routing primitives — the unique (or
//!   canonical) minimal next hop, Valiant-style intermediate selection,
//!   and the hop-kind enumeration used to initialise Q-tables;
//! * a partition of the routers into **locality domains** — the unit of
//!   conservative-parallel sharding. For the Dragonfly a domain is a
//!   group, for a fat-tree a pod (plus its slice of the core), for a
//!   HyperX a row of the router grid.
//!
//! ## The locality-domain contract
//!
//! Domains generalise Dragonfly groups and carry three obligations the
//! engine's sharding relies on:
//!
//! 1. **Contiguity** — the routers of domain `d` occupy the contiguous
//!    id range [`Topology::router_range_of_domain`], and domain `d + 1`'s
//!    range starts where domain `d`'s ends (same for nodes). A shard can
//!    therefore own a contiguous run of domains with dense local arrays.
//! 2. **Host locality** — a node and its router are in the same domain.
//! 3. **Cross-domain lookahead** — every link between routers of
//!    *different* domains has latency at least
//!    [`Topology::min_cross_domain_latency`]. This is the conservative
//!    lookahead window: any message crossing a shard boundary (packet,
//!    credit, RL feedback) fires at least one window into the future.
//!
//! All three shipped topologies satisfy the contract by construction and
//! the cross-topology property tests in `tests/properties.rs` pin it.

use crate::ids::{GroupId, NodeId, Port, RouterId};
use crate::liveness::LivenessMask;
use crate::paths::HopKind;
use crate::ports::PortKind;
use crate::topology::Neighbor;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;

/// Upper bound on the hops of any minimal route of any shipped topology
/// (Dragonfly 3, HyperX 2, fat-tree 4 plus slack for agg/core endpoints).
/// The generic route walkers assert against it to catch routing loops.
pub const MAX_MINIMAL_HOPS: usize = 16;

/// A network topology: wiring, routing primitives and the locality-domain
/// partition used for sharding. See the module docs for the contract.
///
/// Identifier semantics are topology-generic: [`GroupId`] names a
/// *locality domain* (a Dragonfly group, a fat-tree pod, a HyperX row);
/// port indices are per-router with host ports first.
pub trait Topology: Send + Sync {
    // ------------------------------------------------------------------
    // Identity
    // ------------------------------------------------------------------

    /// Short kind name (`"dragonfly"`, `"fattree"`, `"hyperx"`).
    fn kind_name(&self) -> &'static str;

    /// One-line human-readable description with the key parameters.
    fn label(&self) -> String;

    // ------------------------------------------------------------------
    // Counts
    // ------------------------------------------------------------------

    /// Number of routers (switches) in the system.
    fn num_routers(&self) -> usize;

    /// Number of compute nodes in the system.
    fn num_nodes(&self) -> usize;

    /// Number of locality domains.
    fn num_domains(&self) -> usize;

    /// The maximum number of nodes attached to any router — the range of
    /// a packet's `src_slot` and the second row index of two-level
    /// Q-tables.
    fn max_nodes_per_router(&self) -> usize;

    /// An upper bound on the router-to-router hops of a minimal route.
    fn diameter(&self) -> usize;

    // ------------------------------------------------------------------
    // Per-router port layout (host ports first, then fabric ports)
    // ------------------------------------------------------------------

    /// Number of ports of `router`.
    fn radix(&self, router: RouterId) -> usize;

    /// Number of host (node-facing) ports of `router`. Host ports occupy
    /// indices `[0, host_ports)`; fabric ports follow.
    fn host_ports(&self, router: RouterId) -> usize;

    /// Classify a port of `router`.
    fn port_kind(&self, router: RouterId, port: Port) -> PortKind;

    /// Number of fabric (non-host) ports of `router` — the number of
    /// columns of its Q-tables.
    fn fabric_ports(&self, router: RouterId) -> usize {
        self.radix(router) - self.host_ports(router)
    }

    /// Q-table column of a fabric port of `router` (`None` for host
    /// ports).
    fn qtable_column(&self, router: RouterId, port: Port) -> Option<usize> {
        let offset = self.host_ports(router);
        (port.index() >= offset).then(|| port.index() - offset)
    }

    /// The fabric port of `router` for a Q-table column index.
    fn port_for_column(&self, router: RouterId, column: usize) -> Port {
        debug_assert!(column < self.fabric_ports(router));
        Port::from_index(self.host_ports(router) + column)
    }

    /// All fabric ports of `router` except `exclude` (ε-greedy
    /// exploration candidates).
    fn exploration_ports(&self, router: RouterId, exclude: Option<Port>) -> Vec<Port> {
        (self.host_ports(router)..self.radix(router))
            .map(Port::from_index)
            .filter(|p| Some(*p) != exclude)
            .collect()
    }

    /// The [`HopKind`] of a fabric port's link (panics on host ports).
    fn link_kind(&self, router: RouterId, port: Port) -> HopKind {
        match self.port_kind(router, port) {
            PortKind::Local => HopKind::Local,
            PortKind::Global => HopKind::Global,
            PortKind::Host => panic!("host ports have no link kind"),
        }
    }

    // ------------------------------------------------------------------
    // Liveness (fault injection)
    // ------------------------------------------------------------------

    /// The fault-injection mask of this topology instance. A freshly
    /// built topology is pristine (everything up); the engine mutates the
    /// mask of its own clone when it applies a fault schedule.
    fn liveness(&self) -> &LivenessMask;

    /// Mutable access to the fault-injection mask.
    fn liveness_mut(&mut self) -> &mut LivenessMask;

    /// Whether `port` of `router` is currently up. Killing a link marks
    /// *both* endpoint ports down, so callers never need to consult the
    /// far side (the query is purely local to `router`).
    #[inline]
    fn port_up(&self, router: RouterId, port: Port) -> bool {
        self.liveness().port_up(router, port)
    }

    /// Whether `router` is currently up.
    #[inline]
    fn router_up(&self, router: RouterId) -> bool {
        self.liveness().router_up(router)
    }

    // ------------------------------------------------------------------
    // Node attachment
    // ------------------------------------------------------------------

    /// The router a node is attached to.
    fn router_of_node(&self, node: NodeId) -> RouterId;

    /// The host-port slot the node occupies on its router.
    fn node_slot(&self, node: NodeId) -> usize;

    /// The host port that ejects to `node` (contract: host port index ==
    /// node slot).
    fn ejection_port(&self, node: NodeId) -> Port {
        Port::from_index(self.node_slot(node))
    }

    // ------------------------------------------------------------------
    // Locality domains
    // ------------------------------------------------------------------

    /// The domain a router belongs to.
    fn domain_of_router(&self, router: RouterId) -> GroupId;

    /// The domain a node belongs to (same as its router's domain).
    fn domain_of_node(&self, node: NodeId) -> GroupId {
        self.domain_of_router(self.router_of_node(node))
    }

    /// The contiguous router-id range of a domain. Domain `d + 1`'s range
    /// starts exactly where domain `d`'s ends.
    fn router_range_of_domain(&self, domain: usize) -> Range<usize>;

    /// The contiguous node-id range of a domain (same contiguity
    /// contract).
    fn node_range_of_domain(&self, domain: usize) -> Range<usize>;

    /// The minimum latency of any link between routers of *different*
    /// domains — the conservative sharding lookahead. All shipped
    /// topologies route cross-domain traffic over global-latency links.
    fn min_cross_domain_latency(&self, local_ns: u64, global_ns: u64) -> u64 {
        let _ = local_ns;
        global_ns
    }

    // ------------------------------------------------------------------
    // Wiring
    // ------------------------------------------------------------------

    /// What sits on the far side of `port` of `router`.
    fn neighbor(&self, router: RouterId, port: Port) -> Neighbor;

    /// The router on the far side of a fabric port (panics on host
    /// ports).
    fn neighbor_router(&self, router: RouterId, port: Port) -> RouterId {
        match self.neighbor(router, port) {
            Neighbor::Router { router, .. } => router,
            Neighbor::Node(_) => panic!("neighbor_router called on a host port"),
        }
    }

    // ------------------------------------------------------------------
    // Minimal routing
    // ------------------------------------------------------------------

    /// The output port of `current` on the canonical minimal route
    /// towards `dest`, or `None` when `current == dest`. Must make strict
    /// progress: repeatedly following it reaches `dest` within
    /// [`MAX_MINIMAL_HOPS`].
    fn minimal_port(&self, current: RouterId, dest: RouterId) -> Option<Port>;

    /// Like [`Topology::minimal_port`] but towards a node, returning the
    /// ejection port at the destination router.
    fn minimal_port_to_node(&self, current: RouterId, dest_node: NodeId) -> Port {
        let dest_router = self.router_of_node(dest_node);
        match self.minimal_port(current, dest_router) {
            Some(p) => p,
            None => self.ejection_port(dest_node),
        }
    }

    /// The hop kinds along the canonical minimal route (used for
    /// congestion-free delivery-time estimates).
    fn minimal_hop_kinds(&self, src: RouterId, dst: RouterId) -> Vec<HopKind> {
        let mut kinds = Vec::with_capacity(self.diameter());
        let mut current = src;
        while current != dst {
            let port = self
                .minimal_port(current, dst)
                .expect("non-equal routers must have a minimal port");
            kinds.push(self.link_kind(current, port));
            current = self.neighbor_router(current, port);
            assert!(
                kinds.len() <= MAX_MINIMAL_HOPS,
                "minimal route of {} looped ({src} -> {dst})",
                self.kind_name()
            );
        }
        kinds
    }

    /// Number of router-to-router hops of the canonical minimal route.
    fn minimal_hops(&self, src: RouterId, dst: RouterId) -> usize {
        self.minimal_hop_kinds(src, dst).len()
    }

    /// The hop kinds of a *typical* congestion-free minimal route from
    /// `router` to a node-bearing router of `domain` (Q-table
    /// initialisation; an average-case estimate, not an exact path). One
    /// of a handful of constant sequences per fabric, so nothing is
    /// allocated: the init of a lazy Q-table row calls this per column.
    fn estimate_hops_to_domain(&self, router: RouterId, domain: GroupId) -> &'static [HopKind];

    // ------------------------------------------------------------------
    // Non-minimal routing primitives
    // ------------------------------------------------------------------

    /// An output port of `router` that makes progress towards `domain`
    /// (the router must not already be a member of `domain`).
    fn port_toward_domain(&self, router: RouterId, domain: GroupId) -> Port;

    /// If `router` has a port whose next hop lands *inside* `domain`,
    /// that port (the "own global link" of the Dragonfly, the core
    /// down-link of a fat-tree, the row link of a HyperX).
    fn direct_port_to_domain(&self, router: RouterId, domain: GroupId) -> Option<Port>;

    /// A uniformly random intermediate domain for Valiant routing: any
    /// domain other than `src_domain` and `dst_domain`. Callers must
    /// ensure `num_domains() > 2`. The default rejection-samples the
    /// domain index; implementations overriding it must consume the RNG
    /// identically to keep the cross-topology determinism contract
    /// (Dragonfly pins its pre-trait stream by delegating to
    /// `random_intermediate_group`, which draws the same way).
    fn random_intermediate_domain(
        &self,
        rng: &mut StdRng,
        src_domain: GroupId,
        dst_domain: GroupId,
    ) -> GroupId {
        debug_assert!(self.num_domains() > 2, "valiant needs three domains");
        loop {
            let candidate = GroupId::from_index(rng.gen_range(0..self.num_domains()));
            if candidate != src_domain && candidate != dst_domain {
                return candidate;
            }
        }
    }

    /// A uniformly random node-bearing intermediate router outside the
    /// source and destination domains (Valiant-node routing). Callers
    /// must ensure `num_domains() > 2`.
    fn random_intermediate_router(
        &self,
        rng: &mut StdRng,
        src_domain: GroupId,
        dst_domain: GroupId,
    ) -> RouterId;

    /// A uniformly random *intra-domain* escape port of `router` (the
    /// Q-adaptive intermediate-domain reroute and VALn-style local
    /// detours). Falls back to a random fabric port on routers without
    /// intra-domain links.
    fn random_escape_port(&self, rng: &mut StdRng, router: RouterId) -> Port;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DragonflyConfig;
    use crate::topology::Dragonfly;

    #[test]
    fn default_port_helpers_match_the_dragonfly_layout() {
        let t = Dragonfly::new(DragonflyConfig::tiny());
        let r = RouterId(3);
        // Trait defaults agree with the hand-written PortLayout.
        assert_eq!(Topology::fabric_ports(&t, r), t.layout().fabric_ports());
        for port in t.layout().fabric_port_iter() {
            assert_eq!(
                Topology::qtable_column(&t, r, port),
                t.layout().qtable_column(port)
            );
        }
        for col in 0..t.layout().fabric_ports() {
            assert_eq!(
                Topology::port_for_column(&t, r, col),
                t.layout().port_for_column(col)
            );
        }
        assert_eq!(
            Topology::exploration_ports(&t, r, None),
            t.exploration_ports(None)
        );
    }
}
