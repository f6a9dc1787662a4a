//! The Dragonfly wiring: which port connects to what.
//!
//! The topology uses the "absolute" global-link arrangement: within a group,
//! router with local index `r` owns the global links to the other-group
//! indices `r*h .. r*h + h` (other groups are numbered by skipping the
//! router's own group). Because `g = a*h + 1`, every group has exactly one
//! global link to every other group, and the mapping is symmetric: the link
//! between groups `G1` and `G2` connects the router in `G1` that owns `G2`
//! with the router in `G2` that owns `G1`.

use crate::config::DragonflyConfig;
use crate::ids::{GroupId, NodeId, Port, RouterId};
use crate::liveness::LivenessMask;
use crate::ports::{PortKind, PortLayout};
use serde::{Deserialize, Serialize};

/// What sits on the far side of a router port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Neighbor {
    /// A compute node (host port).
    Node(NodeId),
    /// Another router; `port` is the input port on the far router that this
    /// link feeds (needed for credit accounting).
    Router { router: RouterId, port: Port },
}

/// A fully wired Dragonfly topology.
///
/// All queries are O(1) arithmetic; nothing is materialised besides the
/// configuration and the port layout, so cloning is cheap and a 10k-router
/// topology costs nothing to "build".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dragonfly {
    cfg: DragonflyConfig,
    layout: PortLayout,
    /// Fault-injection mask; empty (everything up) on a fresh topology.
    #[serde(default)]
    liveness: LivenessMask,
}

impl Dragonfly {
    /// Build the topology for a configuration.
    pub fn new(cfg: DragonflyConfig) -> Self {
        let layout = PortLayout::new(&cfg);
        Self {
            cfg,
            layout,
            liveness: LivenessMask::new(),
        }
    }

    /// The configuration this topology was built from.
    #[inline]
    pub fn config(&self) -> &DragonflyConfig {
        &self.cfg
    }

    /// The port layout helper.
    #[inline]
    pub fn layout(&self) -> &PortLayout {
        &self.layout
    }

    /// Number of routers in the system.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.cfg.routers()
    }

    /// Number of compute nodes in the system.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.cfg.nodes()
    }

    /// Number of groups in the system.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.cfg.groups()
    }

    /// Router radix.
    #[inline]
    pub fn radix(&self) -> usize {
        self.layout.radix()
    }

    // ------------------------------------------------------------------
    // Entity relationships
    // ------------------------------------------------------------------

    /// The router a node is attached to.
    #[inline]
    pub fn router_of_node(&self, node: NodeId) -> RouterId {
        RouterId::from_index(node.index() / self.cfg.p)
    }

    /// The host-port slot (0..p) a node occupies on its router.
    #[inline]
    pub fn node_slot(&self, node: NodeId) -> usize {
        node.index() % self.cfg.p
    }

    /// The host port on `router_of_node(node)` that ejects to `node`.
    #[inline]
    pub fn ejection_port(&self, node: NodeId) -> Port {
        self.layout.host_port(self.node_slot(node))
    }

    /// The nodes attached to a router.
    pub fn nodes_of_router(&self, router: RouterId) -> impl Iterator<Item = NodeId> {
        let base = router.index() * self.cfg.p;
        (base..base + self.cfg.p).map(NodeId::from_index)
    }

    /// The group a router belongs to.
    #[inline]
    pub fn group_of_router(&self, router: RouterId) -> GroupId {
        GroupId::from_index(router.index() / self.cfg.a)
    }

    /// The group a node belongs to.
    #[inline]
    pub fn group_of_node(&self, node: NodeId) -> GroupId {
        self.group_of_router(self.router_of_node(node))
    }

    /// The local index (0..a) of a router within its group.
    #[inline]
    pub fn local_index(&self, router: RouterId) -> usize {
        router.index() % self.cfg.a
    }

    /// The router with a given local index inside a group.
    #[inline]
    pub fn router_in_group(&self, group: GroupId, local_index: usize) -> RouterId {
        debug_assert!(local_index < self.cfg.a);
        RouterId::from_index(group.index() * self.cfg.a + local_index)
    }

    /// Iterator over all routers of a group.
    pub fn routers_of_group(&self, group: GroupId) -> impl Iterator<Item = RouterId> {
        let base = group.index() * self.cfg.a;
        (base..base + self.cfg.a).map(RouterId::from_index)
    }

    /// Iterator over all routers in the system.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> {
        (0..self.num_routers()).map(RouterId::from_index)
    }

    /// Iterator over all nodes in the system.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Iterator over all groups in the system.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> {
        (0..self.num_groups()).map(GroupId::from_index)
    }

    // ------------------------------------------------------------------
    // Wiring
    // ------------------------------------------------------------------

    /// The local port on `router` that reaches `other` (same group,
    /// different router).
    pub fn local_port_to(&self, router: RouterId, other: RouterId) -> Port {
        debug_assert_eq!(self.group_of_router(router), self.group_of_router(other));
        debug_assert_ne!(router, other);
        let me = self.local_index(router);
        let them = self.local_index(other);
        // Skip-self numbering: slot l connects to local index l if l < me,
        // otherwise l + 1.
        let slot = if them < me { them } else { them - 1 };
        self.layout.local_port(slot)
    }

    /// The router reached by a local port.
    pub fn local_neighbor(&self, router: RouterId, port: Port) -> RouterId {
        debug_assert_eq!(self.layout.kind(port), PortKind::Local);
        let me = self.local_index(router);
        let slot = self.layout.local_slot(port);
        let them = if slot < me { slot } else { slot + 1 };
        self.router_in_group(self.group_of_router(router), them)
    }

    /// The destination group of a global port on a router.
    pub fn global_neighbor_group(&self, router: RouterId, port: Port) -> GroupId {
        debug_assert_eq!(self.layout.kind(port), PortKind::Global);
        let my_group = self.group_of_router(router).index();
        let slot = self.layout.global_slot(port);
        let other_index = self.local_index(router) * self.cfg.h + slot;
        // Other groups are numbered by skipping the router's own group.
        let target = if other_index < my_group {
            other_index
        } else {
            other_index + 1
        };
        GroupId::from_index(target)
    }

    /// The router within `group` that owns the (unique) global link towards
    /// `target_group`, along with the global port it uses.
    pub fn gateway(&self, group: GroupId, target_group: GroupId) -> (RouterId, Port) {
        debug_assert_ne!(group, target_group);
        let g = group.index();
        let t = target_group.index();
        let other_index = if t < g { t } else { t - 1 };
        let local_index = other_index / self.cfg.h;
        let slot = other_index % self.cfg.h;
        (
            self.router_in_group(group, local_index),
            self.layout.global_port(slot),
        )
    }

    /// If `router` has a direct global link to `target_group`, the global
    /// port that reaches it.
    pub fn global_port_to(&self, router: RouterId, target_group: GroupId) -> Option<Port> {
        let my_group = self.group_of_router(router);
        if my_group == target_group {
            return None;
        }
        let (gw, port) = self.gateway(my_group, target_group);
        (gw == router).then_some(port)
    }

    /// Full neighbour resolution: what does `port` of `router` connect to?
    pub fn neighbor(&self, router: RouterId, port: Port) -> Neighbor {
        match self.layout.kind(port) {
            PortKind::Host => {
                let node = NodeId::from_index(router.index() * self.cfg.p + port.index());
                Neighbor::Node(node)
            }
            PortKind::Local => {
                let other = self.local_neighbor(router, port);
                Neighbor::Router {
                    router: other,
                    port: self.local_port_to(other, router),
                }
            }
            PortKind::Global => {
                let target_group = self.global_neighbor_group(router, port);
                let my_group = self.group_of_router(router);
                let (remote, remote_port) = self.gateway(target_group, my_group);
                Neighbor::Router {
                    router: remote,
                    port: remote_port,
                }
            }
        }
    }

    /// The router on the far side of a fabric port (panics on host ports).
    pub fn neighbor_router(&self, router: RouterId, port: Port) -> RouterId {
        match self.neighbor(router, port) {
            Neighbor::Router { router, .. } => router,
            Neighbor::Node(_) => panic!("neighbor_router called on a host port"),
        }
    }

    /// Classify a port of any router (layout is identical for all routers).
    #[inline]
    pub fn port_kind(&self, port: Port) -> PortKind {
        self.layout.kind(port)
    }
}

/// The Dragonfly as a [`crate::traits::Topology`]: a locality domain is a
/// group, cross-domain links are exactly the global links, and every
/// routing primitive delegates to the O(1) arithmetic above — so routing
/// through the trait is bit-for-bit identical to the pre-trait code paths.
impl crate::traits::Topology for Dragonfly {
    fn kind_name(&self) -> &'static str {
        "dragonfly"
    }

    fn liveness(&self) -> &crate::liveness::LivenessMask {
        &self.liveness
    }

    fn liveness_mut(&mut self) -> &mut crate::liveness::LivenessMask {
        &mut self.liveness
    }

    fn label(&self) -> String {
        self.cfg.to_string()
    }

    fn num_routers(&self) -> usize {
        Dragonfly::num_routers(self)
    }

    fn num_nodes(&self) -> usize {
        Dragonfly::num_nodes(self)
    }

    fn num_domains(&self) -> usize {
        self.num_groups()
    }

    fn max_nodes_per_router(&self) -> usize {
        self.cfg.p
    }

    fn diameter(&self) -> usize {
        3
    }

    fn radix(&self, _router: RouterId) -> usize {
        self.layout.radix()
    }

    fn host_ports(&self, _router: RouterId) -> usize {
        self.cfg.p
    }

    fn port_kind(&self, _router: RouterId, port: Port) -> crate::ports::PortKind {
        self.layout.kind(port)
    }

    fn router_of_node(&self, node: NodeId) -> RouterId {
        Dragonfly::router_of_node(self, node)
    }

    fn node_slot(&self, node: NodeId) -> usize {
        Dragonfly::node_slot(self, node)
    }

    fn ejection_port(&self, node: NodeId) -> Port {
        Dragonfly::ejection_port(self, node)
    }

    fn domain_of_router(&self, router: RouterId) -> GroupId {
        self.group_of_router(router)
    }

    fn router_range_of_domain(&self, domain: usize) -> std::ops::Range<usize> {
        domain * self.cfg.a..(domain + 1) * self.cfg.a
    }

    fn node_range_of_domain(&self, domain: usize) -> std::ops::Range<usize> {
        let per_group = self.cfg.a * self.cfg.p;
        domain * per_group..(domain + 1) * per_group
    }

    fn neighbor(&self, router: RouterId, port: Port) -> Neighbor {
        Dragonfly::neighbor(self, router, port)
    }

    fn neighbor_router(&self, router: RouterId, port: Port) -> RouterId {
        Dragonfly::neighbor_router(self, router, port)
    }

    fn minimal_port(&self, current: RouterId, dest: RouterId) -> Option<Port> {
        Dragonfly::minimal_port(self, current, dest)
    }

    fn minimal_hop_kinds(&self, src: RouterId, dst: RouterId) -> Vec<crate::paths::HopKind> {
        Dragonfly::minimal_hop_kinds(self, src, dst)
    }

    fn estimate_hops_to_domain(
        &self,
        router: RouterId,
        domain: GroupId,
    ) -> &'static [crate::paths::HopKind] {
        use crate::paths::HopKind::{Global, Local};
        let my_group = self.group_of_router(router);
        if my_group == domain {
            &[Local]
        } else if self.gateway(my_group, domain).0 == router {
            &[Global, Local]
        } else {
            &[Local, Global, Local]
        }
    }

    fn port_toward_domain(&self, router: RouterId, domain: GroupId) -> Port {
        debug_assert_ne!(self.group_of_router(router), domain);
        if let Some(direct) = self.global_port_to(router, domain) {
            return direct;
        }
        let (gateway, _) = self.gateway(self.group_of_router(router), domain);
        self.local_port_to(router, gateway)
    }

    fn direct_port_to_domain(&self, router: RouterId, domain: GroupId) -> Option<Port> {
        self.global_port_to(router, domain)
    }

    fn random_intermediate_domain(
        &self,
        rng: &mut rand::rngs::StdRng,
        src_domain: GroupId,
        dst_domain: GroupId,
    ) -> GroupId {
        self.random_intermediate_group(rng, src_domain, dst_domain)
    }

    fn random_intermediate_router(
        &self,
        rng: &mut rand::rngs::StdRng,
        src_domain: GroupId,
        dst_domain: GroupId,
    ) -> RouterId {
        Dragonfly::random_intermediate_router(self, rng, src_domain, dst_domain)
    }

    fn random_escape_port(&self, rng: &mut rand::rngs::StdRng, _router: RouterId) -> Port {
        self.random_local_port(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyConfig::tiny())
    }

    #[test]
    fn node_router_group_relationships() {
        let t = topo();
        // tiny: p=2, a=4, h=2, g=9
        assert_eq!(t.router_of_node(NodeId(0)), RouterId(0));
        assert_eq!(t.router_of_node(NodeId(1)), RouterId(0));
        assert_eq!(t.router_of_node(NodeId(2)), RouterId(1));
        assert_eq!(t.group_of_router(RouterId(0)), GroupId(0));
        assert_eq!(t.group_of_router(RouterId(4)), GroupId(1));
        assert_eq!(t.local_index(RouterId(5)), 1);
        assert_eq!(t.node_slot(NodeId(3)), 1);
        let nodes: Vec<_> = t.nodes_of_router(RouterId(3)).collect();
        assert_eq!(nodes, vec![NodeId(6), NodeId(7)]);
    }

    #[test]
    fn local_links_are_symmetric() {
        let t = topo();
        for g in t.groups() {
            for r1 in t.routers_of_group(g) {
                for r2 in t.routers_of_group(g) {
                    if r1 == r2 {
                        continue;
                    }
                    let p12 = t.local_port_to(r1, r2);
                    assert_eq!(t.local_neighbor(r1, p12), r2);
                    match t.neighbor(r1, p12) {
                        Neighbor::Router { router, port } => {
                            assert_eq!(router, r2);
                            assert_eq!(t.local_neighbor(r2, port), r1);
                        }
                        _ => panic!("local port resolved to a node"),
                    }
                }
            }
        }
    }

    #[test]
    fn every_group_pair_has_exactly_one_global_link() {
        let t = topo();
        let g = t.num_groups();
        let mut count = vec![vec![0usize; g]; g];
        for r in t.routers() {
            for port in t.layout().global_ports() {
                let dst = t.global_neighbor_group(r, port);
                let src = t.group_of_router(r);
                assert_ne!(src, dst, "global link must leave the group");
                count[src.index()][dst.index()] += 1;
            }
        }
        for (a, row) in count.iter().enumerate() {
            for (b, links) in row.iter().enumerate() {
                if a == b {
                    assert_eq!(*links, 0);
                } else {
                    assert_eq!(*links, 1, "groups {a} and {b}");
                }
            }
        }
    }

    #[test]
    fn global_links_are_symmetric() {
        let t = topo();
        for r in t.routers() {
            for port in t.layout().global_ports() {
                match t.neighbor(r, port) {
                    Neighbor::Router {
                        router: remote,
                        port: remote_port,
                    } => {
                        // The reverse link must come straight back.
                        match t.neighbor(remote, remote_port) {
                            Neighbor::Router { router, port } => {
                                assert_eq!(router, r);
                                assert_eq!(port, port);
                            }
                            _ => panic!("global reverse resolved to a node"),
                        }
                        assert_ne!(t.group_of_router(remote), t.group_of_router(r));
                    }
                    _ => panic!("global port resolved to a node"),
                }
            }
        }
    }

    #[test]
    fn gateway_agrees_with_global_ports() {
        let t = topo();
        for g1 in t.groups() {
            for g2 in t.groups() {
                if g1 == g2 {
                    continue;
                }
                let (gw, port) = t.gateway(g1, g2);
                assert_eq!(t.group_of_router(gw), g1);
                assert_eq!(t.global_neighbor_group(gw, port), g2);
                assert_eq!(t.global_port_to(gw, g2), Some(port));
            }
        }
    }

    #[test]
    fn host_ports_map_to_attached_nodes() {
        let t = topo();
        for r in t.routers() {
            for (slot, node) in t.nodes_of_router(r).enumerate() {
                let port = t.layout().host_port(slot);
                assert_eq!(t.neighbor(r, port), Neighbor::Node(node));
                assert_eq!(t.ejection_port(node), port);
            }
        }
    }

    #[test]
    fn paper_scale_topology_is_consistent() {
        let t = Dragonfly::new(DragonflyConfig::paper_1056());
        assert_eq!(t.num_routers(), 264);
        assert_eq!(t.num_nodes(), 1056);
        // Spot-check symmetry on the larger system.
        let r = RouterId(100);
        for port in t.layout().fabric_port_iter() {
            if let Neighbor::Router { router, port: back } = t.neighbor(r, port) {
                assert_eq!(t.neighbor_router(router, back), r);
            }
        }
    }
}
