//! [`AnyTopology`] — the concrete topology value the engine and the
//! routing algorithms carry around.
//!
//! An enum (rather than `Box<dyn Topology>`) keeps the hot-path queries
//! (`neighbor`, `port_kind`, `minimal_port`) free of virtual dispatch and
//! keeps the type `Clone` for per-shard copies. Adding a topology means
//! adding a variant here and a `TopologySpec` variant in
//! [`crate::spec`] — nothing in the engine changes.

use crate::fattree::FatTree;
use crate::hyperx::HyperX;
use crate::ids::{GroupId, NodeId, Port, RouterId};
use crate::paths::HopKind;
use crate::ports::PortKind;
use crate::topology::{Dragonfly, Neighbor};
use crate::traits::Topology;
use rand::rngs::StdRng;
use std::ops::Range;

/// One of the shipped topology implementations, dispatching the
/// [`Topology`] trait statically.
#[derive(Debug, Clone)]
pub enum AnyTopology {
    /// The paper's Dragonfly (groups = domains).
    Dragonfly(Dragonfly),
    /// A three-level fat-tree (pods = domains).
    FatTree(FatTree),
    /// A 2-D HyperX / flattened butterfly (rows = domains).
    HyperX(HyperX),
}

impl From<Dragonfly> for AnyTopology {
    fn from(t: Dragonfly) -> Self {
        AnyTopology::Dragonfly(t)
    }
}

impl From<FatTree> for AnyTopology {
    fn from(t: FatTree) -> Self {
        AnyTopology::FatTree(t)
    }
}

impl From<HyperX> for AnyTopology {
    fn from(t: HyperX) -> Self {
        AnyTopology::HyperX(t)
    }
}

impl AnyTopology {
    /// The Dragonfly inside, if this is one (some analyses are
    /// Dragonfly-specific).
    pub fn as_dragonfly(&self) -> Option<&Dragonfly> {
        match self {
            AnyTopology::Dragonfly(t) => Some(t),
            _ => None,
        }
    }

    /// Iterator over all router ids.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> {
        (0..self.num_routers()).map(RouterId::from_index)
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Iterator over all domain ids.
    pub fn domains(&self) -> impl Iterator<Item = GroupId> {
        (0..self.num_domains()).map(GroupId::from_index)
    }
}

/// Delegate every trait method to the active variant.
macro_rules! delegate {
    ($self:ident, $t:ident => $body:expr) => {
        match $self {
            AnyTopology::Dragonfly($t) => $body,
            AnyTopology::FatTree($t) => $body,
            AnyTopology::HyperX($t) => $body,
        }
    };
}

impl Topology for AnyTopology {
    fn kind_name(&self) -> &'static str {
        delegate!(self, t => t.kind_name())
    }

    fn label(&self) -> String {
        delegate!(self, t => t.label())
    }

    fn num_routers(&self) -> usize {
        delegate!(self, t => Topology::num_routers(t))
    }

    fn num_nodes(&self) -> usize {
        delegate!(self, t => Topology::num_nodes(t))
    }

    fn num_domains(&self) -> usize {
        delegate!(self, t => t.num_domains())
    }

    fn max_nodes_per_router(&self) -> usize {
        delegate!(self, t => t.max_nodes_per_router())
    }

    fn diameter(&self) -> usize {
        delegate!(self, t => t.diameter())
    }

    fn liveness(&self) -> &crate::liveness::LivenessMask {
        delegate!(self, t => Topology::liveness(t))
    }

    fn liveness_mut(&mut self) -> &mut crate::liveness::LivenessMask {
        delegate!(self, t => Topology::liveness_mut(t))
    }

    fn port_up(&self, router: RouterId, port: Port) -> bool {
        delegate!(self, t => Topology::port_up(t, router, port))
    }

    fn router_up(&self, router: RouterId) -> bool {
        delegate!(self, t => Topology::router_up(t, router))
    }

    fn radix(&self, router: RouterId) -> usize {
        delegate!(self, t => Topology::radix(t, router))
    }

    fn host_ports(&self, router: RouterId) -> usize {
        delegate!(self, t => t.host_ports(router))
    }

    fn port_kind(&self, router: RouterId, port: Port) -> PortKind {
        delegate!(self, t => Topology::port_kind(t, router, port))
    }

    fn fabric_ports(&self, router: RouterId) -> usize {
        delegate!(self, t => Topology::fabric_ports(t, router))
    }

    fn qtable_column(&self, router: RouterId, port: Port) -> Option<usize> {
        delegate!(self, t => Topology::qtable_column(t, router, port))
    }

    fn port_for_column(&self, router: RouterId, column: usize) -> Port {
        delegate!(self, t => Topology::port_for_column(t, router, column))
    }

    fn exploration_ports(&self, router: RouterId, exclude: Option<Port>) -> Vec<Port> {
        delegate!(self, t => Topology::exploration_ports(t, router, exclude))
    }

    fn router_of_node(&self, node: NodeId) -> RouterId {
        delegate!(self, t => Topology::router_of_node(t, node))
    }

    fn node_slot(&self, node: NodeId) -> usize {
        delegate!(self, t => Topology::node_slot(t, node))
    }

    fn ejection_port(&self, node: NodeId) -> Port {
        delegate!(self, t => Topology::ejection_port(t, node))
    }

    fn domain_of_router(&self, router: RouterId) -> GroupId {
        delegate!(self, t => t.domain_of_router(router))
    }

    fn router_range_of_domain(&self, domain: usize) -> Range<usize> {
        delegate!(self, t => t.router_range_of_domain(domain))
    }

    fn node_range_of_domain(&self, domain: usize) -> Range<usize> {
        delegate!(self, t => t.node_range_of_domain(domain))
    }

    fn min_cross_domain_latency(&self, local_ns: u64, global_ns: u64) -> u64 {
        delegate!(self, t => t.min_cross_domain_latency(local_ns, global_ns))
    }

    fn neighbor(&self, router: RouterId, port: Port) -> Neighbor {
        delegate!(self, t => Topology::neighbor(t, router, port))
    }

    fn neighbor_router(&self, router: RouterId, port: Port) -> RouterId {
        delegate!(self, t => Topology::neighbor_router(t, router, port))
    }

    fn minimal_port(&self, current: RouterId, dest: RouterId) -> Option<Port> {
        delegate!(self, t => Topology::minimal_port(t, current, dest))
    }

    fn minimal_port_to_node(&self, current: RouterId, dest_node: NodeId) -> Port {
        delegate!(self, t => Topology::minimal_port_to_node(t, current, dest_node))
    }

    fn minimal_hop_kinds(&self, src: RouterId, dst: RouterId) -> Vec<HopKind> {
        delegate!(self, t => Topology::minimal_hop_kinds(t, src, dst))
    }

    fn minimal_hops(&self, src: RouterId, dst: RouterId) -> usize {
        delegate!(self, t => Topology::minimal_hops(t, src, dst))
    }

    fn estimate_hops_to_domain(&self, router: RouterId, domain: GroupId) -> &'static [HopKind] {
        delegate!(self, t => t.estimate_hops_to_domain(router, domain))
    }

    fn port_toward_domain(&self, router: RouterId, domain: GroupId) -> Port {
        delegate!(self, t => t.port_toward_domain(router, domain))
    }

    fn direct_port_to_domain(&self, router: RouterId, domain: GroupId) -> Option<Port> {
        delegate!(self, t => t.direct_port_to_domain(router, domain))
    }

    fn random_intermediate_domain(
        &self,
        rng: &mut StdRng,
        src_domain: GroupId,
        dst_domain: GroupId,
    ) -> GroupId {
        delegate!(self, t => t.random_intermediate_domain(rng, src_domain, dst_domain))
    }

    fn random_intermediate_router(
        &self,
        rng: &mut StdRng,
        src_domain: GroupId,
        dst_domain: GroupId,
    ) -> RouterId {
        delegate!(self, t => Topology::random_intermediate_router(t, rng, src_domain, dst_domain))
    }

    fn random_escape_port(&self, rng: &mut StdRng, router: RouterId) -> Port {
        delegate!(self, t => t.random_escape_port(rng, router))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DragonflyConfig;
    use crate::fattree::FatTreeConfig;
    use crate::hyperx::HyperXConfig;
    use rand::SeedableRng;

    fn all_tiny() -> Vec<AnyTopology> {
        vec![
            Dragonfly::new(DragonflyConfig::tiny()).into(),
            FatTree::new(FatTreeConfig::tiny()).into(),
            HyperX::new(HyperXConfig::tiny()).into(),
        ]
    }

    #[test]
    fn delegation_agrees_with_the_dragonfly_inherent_api() {
        let df = Dragonfly::new(DragonflyConfig::tiny());
        let any: AnyTopology = df.clone().into();
        assert_eq!(any.num_routers(), df.num_routers());
        assert_eq!(any.num_domains(), df.num_groups());
        for r in df.routers() {
            assert_eq!(any.domain_of_router(r), df.group_of_router(r));
            for dst in df.routers() {
                assert_eq!(any.minimal_port(r, dst), df.minimal_port(r, dst));
            }
        }
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(
                any.random_intermediate_domain(&mut a, GroupId(0), GroupId(3)),
                df.random_intermediate_group(&mut b, GroupId(0), GroupId(3)),
                "trait dispatch must consume the RNG identically"
            );
        }
    }

    #[test]
    fn every_topology_satisfies_the_domain_contract() {
        for topo in all_tiny() {
            // Ranges tile the router and node id spaces in order.
            let (mut next_r, mut next_n) = (0, 0);
            for d in 0..topo.num_domains() {
                let rr = topo.router_range_of_domain(d);
                let nr = topo.node_range_of_domain(d);
                assert_eq!(rr.start, next_r, "{}", topo.kind_name());
                assert_eq!(nr.start, next_n, "{}", topo.kind_name());
                next_r = rr.end;
                next_n = nr.end;
            }
            assert_eq!(next_r, topo.num_routers());
            assert_eq!(next_n, topo.num_nodes());
            // A node and its router share a domain; slots are in range.
            for node in topo.nodes() {
                let router = topo.router_of_node(node);
                assert_eq!(topo.domain_of_node(node), topo.domain_of_router(router));
                assert!(topo.node_slot(node) < topo.max_nodes_per_router());
                assert_eq!(
                    topo.neighbor(router, topo.ejection_port(node)),
                    Neighbor::Node(node)
                );
            }
            // Cross-domain links always carry the lookahead latency.
            for router in topo.routers() {
                for p in topo.host_ports(router)..topo.radix(router) {
                    let port = Port::from_index(p);
                    let far = topo.neighbor_router(router, port);
                    if topo.domain_of_router(far) != topo.domain_of_router(router) {
                        assert_eq!(topo.port_kind(router, port), PortKind::Global);
                    }
                }
            }
            assert_eq!(topo.min_cross_domain_latency(30, 300), 300);
        }
    }

    #[test]
    fn liveness_mask_threads_through_every_variant() {
        for mut topo in all_tiny() {
            let r = RouterId(0);
            let port = Port::from_index(topo.host_ports(r)); // first fabric port
            assert!(topo.port_up(r, port));
            assert!(topo.router_up(r));
            topo.liveness_mut().set_port_down(r, port);
            assert!(!topo.port_up(r, port), "{}", topo.kind_name());
            assert!(topo.router_up(r));
            topo.liveness_mut().set_router_down(RouterId(1));
            assert!(!topo.router_up(RouterId(1)), "{}", topo.kind_name());
            // A clone carries the mask; an independent build is pristine.
            let clone = topo.clone();
            assert!(!clone.port_up(r, port));
            topo.liveness_mut().set_port_up(r, port);
            topo.liveness_mut().set_router_up(RouterId(1));
            assert!(topo.liveness().is_pristine());
        }
    }

    #[test]
    fn minimal_routing_terminates_everywhere() {
        for topo in all_tiny() {
            for src in topo.routers() {
                for dst in topo.routers() {
                    let hops = topo.minimal_hops(src, dst);
                    assert!(
                        hops <= topo.diameter(),
                        "{}: {src}->{dst}",
                        topo.kind_name()
                    );
                }
            }
        }
    }
}
