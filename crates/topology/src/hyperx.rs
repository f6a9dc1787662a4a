//! A two-dimensional HyperX (flattened-butterfly) topology.
//!
//! Routers form a `rows × cols` grid; every router is directly connected
//! to **all** other routers in its row and to **all** other routers in
//! its column, and hosts `p` compute nodes. Row links are short
//! (**local** latency) and column links span the machine (**global**
//! latency), mirroring the Dragonfly's local/global split.
//!
//! ## Locality domains
//!
//! A domain is one row: router ids are row-major, so each row is a
//! contiguous id range, every intra-row link stays inside a domain and
//! every inter-row (column) link is a global-latency cross-domain link —
//! exactly the lookahead structure the conservative-parallel engine
//! needs (see [`crate::traits::Topology`]).
//!
//! Minimal routing is dimension-ordered (column first, then row):
//! at most one local plus one global hop, diameter 2.

use crate::ids::{GroupId, NodeId, Port, RouterId};
use crate::paths::HopKind;
use crate::ports::PortKind;
use crate::topology::Neighbor;
use crate::traits::Topology;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a 2-D HyperX / flattened butterfly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HyperXConfig {
    /// Compute nodes per router.
    pub p: usize,
    /// Grid rows (= locality domains; all-to-all within a column).
    pub rows: usize,
    /// Grid columns (all-to-all within a row).
    pub cols: usize,
}

impl HyperXConfig {
    /// Validate the structural constraints with a friendly message.
    pub fn validate(&self) -> Result<(), String> {
        if self.p == 0 {
            return Err("hyperx needs at least 1 node per router (p >= 1)".to_string());
        }
        if self.rows < 2 || self.cols < 2 {
            return Err(format!(
                "hyperx needs at least a 2x2 router grid so both dimensions have links \
                 (got rows = {}, cols = {})",
                self.rows, self.cols
            ));
        }
        Ok(())
    }

    /// Routers in the grid.
    pub fn routers(&self) -> usize {
        self.rows * self.cols
    }

    /// Compute nodes in the system.
    pub fn nodes(&self) -> usize {
        self.routers() * self.p
    }

    /// Router radix: hosts + row links + column links.
    pub fn radix(&self) -> usize {
        self.p + (self.cols - 1) + (self.rows - 1)
    }

    /// A 72-node 2 × (6 × 6) system for tests and tiny scenarios (same
    /// node count as the tiny Dragonfly).
    pub fn tiny() -> Self {
        Self {
            p: 2,
            rows: 6,
            cols: 6,
        }
    }

    /// A 343-node-ish small system (3 × 8 × 14 = 336 nodes).
    pub fn small() -> Self {
        Self {
            p: 3,
            rows: 8,
            cols: 14,
        }
    }
}

impl std::fmt::Display for HyperXConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HyperX(p={}, rows={}, cols={}, k={}, m={}, N={})",
            self.p,
            self.rows,
            self.cols,
            self.radix(),
            self.routers(),
            self.nodes()
        )
    }
}

/// A fully wired 2-D HyperX. All queries are O(1) arithmetic.
#[derive(Debug, Clone)]
pub struct HyperX {
    cfg: HyperXConfig,
    /// Fault-injection mask; empty (everything up) on a fresh topology.
    liveness: crate::liveness::LivenessMask,
}

impl HyperX {
    /// Build the topology (the configuration must be valid).
    pub fn new(cfg: HyperXConfig) -> Self {
        cfg.validate().expect("invalid hyperx configuration");
        Self {
            cfg,
            liveness: crate::liveness::LivenessMask::new(),
        }
    }

    /// The configuration this topology was built from.
    pub fn config(&self) -> &HyperXConfig {
        &self.cfg
    }

    #[inline]
    fn row(&self, router: RouterId) -> usize {
        router.index() / self.cfg.cols
    }

    #[inline]
    fn col(&self, router: RouterId) -> usize {
        router.index() % self.cfg.cols
    }

    #[inline]
    fn router_at(&self, row: usize, col: usize) -> RouterId {
        RouterId::from_index(row * self.cfg.cols + col)
    }

    /// The local (row) port of `router` towards column `to_col`
    /// (skip-self slot numbering, like the Dragonfly's local ports).
    fn row_port_to(&self, router: RouterId, to_col: usize) -> Port {
        let me = self.col(router);
        debug_assert_ne!(me, to_col);
        let slot = if to_col < me { to_col } else { to_col - 1 };
        Port::from_index(self.cfg.p + slot)
    }

    /// The global (column) port of `router` towards row `to_row`.
    fn col_port_to(&self, router: RouterId, to_row: usize) -> Port {
        let me = self.row(router);
        debug_assert_ne!(me, to_row);
        let slot = if to_row < me { to_row } else { to_row - 1 };
        Port::from_index(self.cfg.p + (self.cfg.cols - 1) + slot)
    }
}

impl Topology for HyperX {
    fn kind_name(&self) -> &'static str {
        "hyperx"
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
        self.cfg.routers()
    }

    fn num_nodes(&self) -> usize {
        self.cfg.nodes()
    }

    fn num_domains(&self) -> usize {
        self.cfg.rows
    }

    fn max_nodes_per_router(&self) -> usize {
        self.cfg.p
    }

    fn diameter(&self) -> usize {
        2
    }

    fn radix(&self, _router: RouterId) -> usize {
        self.cfg.radix()
    }

    fn host_ports(&self, _router: RouterId) -> usize {
        self.cfg.p
    }

    fn port_kind(&self, _router: RouterId, port: Port) -> PortKind {
        let i = port.index();
        if i < self.cfg.p {
            PortKind::Host
        } else if i < self.cfg.p + self.cfg.cols - 1 {
            PortKind::Local
        } else {
            debug_assert!(i < self.cfg.radix());
            PortKind::Global
        }
    }

    fn router_of_node(&self, node: NodeId) -> RouterId {
        RouterId::from_index(node.index() / self.cfg.p)
    }

    fn node_slot(&self, node: NodeId) -> usize {
        node.index() % self.cfg.p
    }

    fn domain_of_router(&self, router: RouterId) -> GroupId {
        GroupId::from_index(self.row(router))
    }

    fn router_range_of_domain(&self, domain: usize) -> std::ops::Range<usize> {
        domain * self.cfg.cols..(domain + 1) * self.cfg.cols
    }

    fn node_range_of_domain(&self, domain: usize) -> std::ops::Range<usize> {
        let per_row = self.cfg.cols * self.cfg.p;
        domain * per_row..(domain + 1) * per_row
    }

    fn neighbor(&self, router: RouterId, port: Port) -> Neighbor {
        let i = port.index();
        let p = self.cfg.p;
        if i < p {
            return Neighbor::Node(NodeId::from_index(router.index() * p + i));
        }
        if i < p + self.cfg.cols - 1 {
            let slot = i - p;
            let me = self.col(router);
            let to_col = if slot < me { slot } else { slot + 1 };
            let far = self.router_at(self.row(router), to_col);
            return Neighbor::Router {
                router: far,
                port: self.row_port_to(far, me),
            };
        }
        let slot = i - p - (self.cfg.cols - 1);
        let me = self.row(router);
        let to_row = if slot < me { slot } else { slot + 1 };
        let far = self.router_at(to_row, self.col(router));
        Neighbor::Router {
            router: far,
            port: self.col_port_to(far, me),
        }
    }

    fn minimal_port(&self, current: RouterId, dest: RouterId) -> Option<Port> {
        if current == dest {
            return None;
        }
        // Dimension order: align the column (local hop) first, then the
        // row (global hop).
        if self.col(current) != self.col(dest) {
            return Some(self.row_port_to(current, self.col(dest)));
        }
        Some(self.col_port_to(current, self.row(dest)))
    }

    fn estimate_hops_to_domain(&self, router: RouterId, domain: GroupId) -> &'static [HopKind] {
        if self.row(router) == domain.index() {
            &[HopKind::Local]
        } else {
            &[HopKind::Global, HopKind::Local]
        }
    }

    fn port_toward_domain(&self, router: RouterId, domain: GroupId) -> Port {
        debug_assert_ne!(self.domain_of_router(router), domain);
        self.col_port_to(router, domain.index())
    }

    fn direct_port_to_domain(&self, router: RouterId, domain: GroupId) -> Option<Port> {
        (self.domain_of_router(router) != domain).then(|| self.col_port_to(router, domain.index()))
    }

    fn random_intermediate_router(
        &self,
        rng: &mut StdRng,
        src_domain: GroupId,
        dst_domain: GroupId,
    ) -> RouterId {
        let domain = self.random_intermediate_domain(rng, src_domain, dst_domain);
        self.router_at(domain.index(), rng.gen_range(0..self.cfg.cols))
    }

    fn random_escape_port(&self, rng: &mut StdRng, _router: RouterId) -> Port {
        Port::from_index(self.cfg.p + rng.gen_range(0..self.cfg.cols - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> HyperX {
        HyperX::new(HyperXConfig::tiny()) // 2 × (6 × 6) = 72 nodes
    }

    #[test]
    fn tiny_counts_match_the_closed_forms() {
        let t = topo();
        assert_eq!(t.num_routers(), 36);
        assert_eq!(t.num_nodes(), 72);
        assert_eq!(t.num_domains(), 6);
        assert_eq!(t.radix(RouterId(0)), 2 + 5 + 5);
    }

    #[test]
    fn validation_rejects_degenerate_grids() {
        assert!(HyperXConfig {
            p: 0,
            rows: 4,
            cols: 4
        }
        .validate()
        .is_err());
        assert!(HyperXConfig {
            p: 2,
            rows: 1,
            cols: 4
        }
        .validate()
        .is_err());
        assert!(HyperXConfig {
            p: 2,
            rows: 4,
            cols: 1
        }
        .validate()
        .is_err());
        assert!(HyperXConfig::tiny().validate().is_ok());
    }

    #[test]
    fn links_are_symmetric() {
        let t = topo();
        for r in 0..t.num_routers() {
            let router = RouterId::from_index(r);
            for p in t.host_ports(router)..t.radix(router) {
                let port = Port::from_index(p);
                match t.neighbor(router, port) {
                    Neighbor::Router {
                        router: far,
                        port: far_port,
                    } => {
                        assert_eq!(
                            t.neighbor(far, far_port),
                            Neighbor::Router { router, port },
                            "{router} port {port}"
                        );
                    }
                    Neighbor::Node(_) => panic!("fabric port resolved to a node"),
                }
            }
        }
    }

    #[test]
    fn minimal_routing_is_dimension_ordered_and_within_diameter() {
        let t = topo();
        for src in 0..t.num_routers() {
            for dst in 0..t.num_routers() {
                let (src, dst) = (RouterId::from_index(src), RouterId::from_index(dst));
                let kinds = t.minimal_hop_kinds(src, dst);
                assert!(kinds.len() <= 2);
                let locals = kinds.iter().filter(|k| **k == HopKind::Local).count();
                let globals = kinds.len() - locals;
                assert_eq!(locals, usize::from(t.col(src) != t.col(dst)));
                assert_eq!(globals, usize::from(t.row(src) != t.row(dst)));
            }
        }
    }

    #[test]
    fn cross_domain_links_are_always_global() {
        let t = topo();
        for r in 0..t.num_routers() {
            let router = RouterId::from_index(r);
            for p in t.host_ports(router)..t.radix(router) {
                let port = Port::from_index(p);
                let far = t.neighbor_router(router, port);
                let cross = t.domain_of_router(far) != t.domain_of_router(router);
                assert_eq!(
                    cross,
                    t.port_kind(router, port) == PortKind::Global,
                    "row links stay in-domain, column links leave it"
                );
            }
        }
    }

    #[test]
    fn direct_and_toward_domain_agree() {
        let t = topo();
        for r in 0..t.num_routers() {
            let router = RouterId::from_index(r);
            for d in 0..t.num_domains() {
                let domain = GroupId::from_index(d);
                if t.domain_of_router(router) == domain {
                    assert_eq!(t.direct_port_to_domain(router, domain), None);
                } else {
                    let port = t.direct_port_to_domain(router, domain).unwrap();
                    assert_eq!(port, t.port_toward_domain(router, domain));
                    assert_eq!(t.domain_of_router(t.neighbor_router(router, port)), domain);
                }
            }
        }
    }

    #[test]
    fn domain_ranges_are_contiguous() {
        let t = topo();
        let mut next = 0;
        for d in 0..t.num_domains() {
            let range = t.router_range_of_domain(d);
            assert_eq!(range.start, next);
            next = range.end;
        }
        assert_eq!(next, t.num_routers());
    }
}
