//! A three-level fat-tree (k-ary Clos) topology.
//!
//! The classic construction for an even arity `k`:
//!
//! * `k` **pods**, each with `k/2` edge switches and `k/2` aggregation
//!   switches;
//! * `(k/2)²` **core** switches; aggregation switch `j` of every pod
//!   connects to cores `[j·k/2, (j+1)·k/2)` (its "plane");
//! * every edge switch hosts `k/2` compute nodes → `k³/4` nodes total.
//!
//! All switches have radix `k`. Edge↔aggregation links are intra-pod
//! (**local** latency); aggregation↔core links span the spine
//! (**global** latency).
//!
//! ## Locality domains
//!
//! A domain is a pod plus a contiguous block of core switches assigned to
//! it (`cores/k` per pod, uneven remainders spread over the first pods).
//! Router ids are laid out domain-contiguously —
//! `[edges of pod p][aggs of pod p][core block p]` — so the sharding
//! contract of [`crate::traits::Topology`] holds: every link between
//! routers of different domains is an aggregation↔core link with global
//! latency, giving the conservative engine the same lookahead window as a
//! Dragonfly global link.

use crate::ids::{GroupId, NodeId, Port, RouterId};
use crate::paths::HopKind;
use crate::ports::PortKind;
use crate::topology::Neighbor;
use crate::traits::Topology;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a three-level k-ary fat-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FatTreeConfig {
    /// Switch arity `k` (even, ≥ 2). `k` pods, `k²/4` cores, `k³/4`
    /// hosts.
    pub k: usize,
}

impl FatTreeConfig {
    /// Validate the structural constraints with a friendly message.
    pub fn validate(&self) -> Result<(), String> {
        if self.k < 2 {
            return Err(format!(
                "fat-tree arity k must be at least 2 (got k = {})",
                self.k
            ));
        }
        if !self.k.is_multiple_of(2) {
            return Err(format!(
                "fat-tree arity k must be even so k/2 up-links pair with k/2 down-links \
                 (got k = {})",
                self.k
            ));
        }
        Ok(())
    }

    /// Half the arity: hosts per edge switch, switches per pod layer.
    pub fn half(&self) -> usize {
        self.k / 2
    }

    /// Number of pods (= locality domains).
    pub fn pods(&self) -> usize {
        self.k
    }

    /// Number of core switches.
    pub fn cores(&self) -> usize {
        self.half() * self.half()
    }

    /// Total switches: `k` pods × `k` switches + cores.
    pub fn routers(&self) -> usize {
        self.k * self.k + self.cores()
    }

    /// Total compute nodes, `k³/4`.
    pub fn nodes(&self) -> usize {
        self.k * self.half() * self.half()
    }

    /// A 16-node, 20-switch fat-tree (`k = 4`) for tests and tiny
    /// scenarios.
    pub fn tiny() -> Self {
        Self { k: 4 }
    }

    /// A 128-node, 80-switch fat-tree (`k = 8`).
    pub fn small() -> Self {
        Self { k: 8 }
    }
}

impl std::fmt::Display for FatTreeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FatTree(k={}, pods={}, cores={}, m={}, N={})",
            self.k,
            self.pods(),
            self.cores(),
            self.routers(),
            self.nodes()
        )
    }
}

/// What a fat-tree router id resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Switch {
    /// Edge switch `idx` (0..k/2) of `pod`.
    Edge { pod: usize, idx: usize },
    /// Aggregation switch `idx` (0..k/2) of `pod`.
    Agg { pod: usize, idx: usize },
    /// Core switch with global core index `core` (0..(k/2)²).
    Core { core: usize },
}

/// A fully wired three-level fat-tree.
#[derive(Debug, Clone)]
pub struct FatTree {
    cfg: FatTreeConfig,
    /// Domain → first router id (length pods + 1).
    domain_start: Vec<usize>,
    /// Domain → first global core index of its core block (length
    /// pods + 1).
    core_block_start: Vec<usize>,
    /// Fault-injection mask; empty (everything up) on a fresh topology.
    liveness: crate::liveness::LivenessMask,
}

impl FatTree {
    /// Build the topology (the configuration must be valid).
    pub fn new(cfg: FatTreeConfig) -> Self {
        cfg.validate().expect("invalid fat-tree configuration");
        let pods = cfg.pods();
        let cores = cfg.cores();
        let mut core_block_start = Vec::with_capacity(pods + 1);
        for p in 0..=pods {
            core_block_start.push(p * cores / pods);
        }
        let mut domain_start = Vec::with_capacity(pods + 1);
        let mut next = 0usize;
        for p in 0..pods {
            domain_start.push(next);
            next += 2 * cfg.half() + (core_block_start[p + 1] - core_block_start[p]);
        }
        domain_start.push(next);
        debug_assert_eq!(next, cfg.routers());
        Self {
            cfg,
            domain_start,
            core_block_start,
            liveness: crate::liveness::LivenessMask::new(),
        }
    }

    /// The configuration this topology was built from.
    pub fn config(&self) -> &FatTreeConfig {
        &self.cfg
    }

    /// Resolve a router id into its switch role.
    fn switch(&self, router: RouterId) -> Switch {
        let r = router.index();
        let pod = self.domain_start.partition_point(|s| *s <= r) - 1;
        let local = r - self.domain_start[pod];
        let half = self.cfg.half();
        if local < half {
            Switch::Edge { pod, idx: local }
        } else if local < 2 * half {
            Switch::Agg {
                pod,
                idx: local - half,
            }
        } else {
            Switch::Core {
                core: self.core_block_start[pod] + (local - 2 * half),
            }
        }
    }

    fn edge_router(&self, pod: usize, idx: usize) -> RouterId {
        RouterId::from_index(self.domain_start[pod] + idx)
    }

    fn agg_router(&self, pod: usize, idx: usize) -> RouterId {
        RouterId::from_index(self.domain_start[pod] + self.cfg.half() + idx)
    }

    fn core_router(&self, core: usize) -> RouterId {
        let owner = self.core_block_start.partition_point(|s| *s <= core) - 1;
        RouterId::from_index(
            self.domain_start[owner] + 2 * self.cfg.half() + (core - self.core_block_start[owner]),
        )
    }

    /// The aggregation "plane" a core belongs to: agg `j` of every pod
    /// connects to cores `[j·k/2, (j+1)·k/2)`.
    fn plane_of_core(&self, core: usize) -> usize {
        core / self.cfg.half()
    }

    /// Deterministic up-link spreading: hashes the destination router so
    /// equal-cost up paths are used evenly without any per-packet RNG.
    fn spread(&self, dest: RouterId) -> usize {
        dest.index() % self.cfg.half()
    }

    fn up_port(&self, slot: usize) -> Port {
        Port::from_index(self.cfg.half() + slot)
    }
}

impl Topology for FatTree {
    fn kind_name(&self) -> &'static str {
        "fattree"
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
        self.cfg.pods()
    }

    fn max_nodes_per_router(&self) -> usize {
        self.cfg.half()
    }

    fn diameter(&self) -> usize {
        // Edge→edge across pods is 4 hops; agg/core endpoints of the
        // defensive total routing function add at most one more.
        6
    }

    fn radix(&self, _router: RouterId) -> usize {
        self.cfg.k
    }

    fn host_ports(&self, router: RouterId) -> usize {
        match self.switch(router) {
            Switch::Edge { .. } => self.cfg.half(),
            _ => 0,
        }
    }

    fn port_kind(&self, router: RouterId, port: Port) -> PortKind {
        let half = self.cfg.half();
        debug_assert!(port.index() < self.cfg.k);
        match self.switch(router) {
            Switch::Edge { .. } => {
                if port.index() < half {
                    PortKind::Host
                } else {
                    PortKind::Local
                }
            }
            Switch::Agg { .. } => {
                if port.index() < half {
                    PortKind::Local
                } else {
                    PortKind::Global
                }
            }
            Switch::Core { .. } => PortKind::Global,
        }
    }

    fn router_of_node(&self, node: NodeId) -> RouterId {
        let half = self.cfg.half();
        let per_pod = half * half;
        let pod = node.index() / per_pod;
        let idx = (node.index() % per_pod) / half;
        self.edge_router(pod, idx)
    }

    fn node_slot(&self, node: NodeId) -> usize {
        node.index() % self.cfg.half()
    }

    fn domain_of_router(&self, router: RouterId) -> GroupId {
        GroupId::from_index(self.domain_start.partition_point(|s| *s <= router.index()) - 1)
    }

    fn router_range_of_domain(&self, domain: usize) -> std::ops::Range<usize> {
        self.domain_start[domain]..self.domain_start[domain + 1]
    }

    fn node_range_of_domain(&self, domain: usize) -> std::ops::Range<usize> {
        let per_pod = self.cfg.half() * self.cfg.half();
        domain * per_pod..(domain + 1) * per_pod
    }

    fn neighbor(&self, router: RouterId, port: Port) -> Neighbor {
        let half = self.cfg.half();
        let i = port.index();
        match self.switch(router) {
            Switch::Edge { pod, idx } => {
                if i < half {
                    // Host port `s` → node (pod, edge idx, slot s).
                    Neighbor::Node(NodeId::from_index(pod * half * half + idx * half + i))
                } else {
                    // Up port j → agg (pod, j), arriving at its down port
                    // `idx` (the edge's index names the agg's down slot).
                    let j = i - half;
                    Neighbor::Router {
                        router: self.agg_router(pod, j),
                        port: Port::from_index(idx),
                    }
                }
            }
            Switch::Agg { pod, idx } => {
                if i < half {
                    // Down port s → edge (pod, s), arriving at its up
                    // port `idx`.
                    Neighbor::Router {
                        router: self.edge_router(pod, i),
                        port: self.up_port(idx),
                    }
                } else {
                    // Up port u → core (idx·k/2 + u), arriving at the
                    // core's port `pod`.
                    let core = idx * half + (i - half);
                    Neighbor::Router {
                        router: self.core_router(core),
                        port: Port::from_index(pod),
                    }
                }
            }
            Switch::Core { core } => {
                // Port p → agg (p, plane), arriving at the agg's up port
                // `core % (k/2)`.
                let plane = self.plane_of_core(core);
                Neighbor::Router {
                    router: self.agg_router(i, plane),
                    port: self.up_port(core % half),
                }
            }
        }
    }

    fn minimal_port(&self, current: RouterId, dest: RouterId) -> Option<Port> {
        if current == dest {
            return None;
        }
        let half = self.cfg.half();
        let port = match (self.switch(current), self.switch(dest)) {
            (Switch::Edge { pod, .. }, Switch::Agg { pod: p2, idx: j2 }) if p2 == pod => {
                self.up_port(j2)
            }
            (Switch::Edge { .. }, Switch::Core { core }) => self.up_port(self.plane_of_core(core)),
            (Switch::Edge { .. }, Switch::Agg { idx: j2, .. }) => {
                // Other pod: rise through plane j2 — its cores connect to
                // agg j2 of every pod.
                self.up_port(j2)
            }
            (Switch::Edge { .. }, Switch::Edge { .. }) => {
                // Same or other pod: rise; the spreading hash picks among
                // the equal-cost planes.
                self.up_port(self.spread(dest))
            }
            (Switch::Agg { pod, .. }, Switch::Edge { pod: p2, idx: i2 }) if p2 == pod => {
                Port::from_index(i2)
            }
            (Switch::Agg { pod, .. }, Switch::Agg { pod: p2, .. }) if p2 == pod => {
                // Sibling agg: descend to an edge, which rises directly.
                Port::from_index(self.spread(dest))
            }
            (Switch::Agg { idx: j, .. }, Switch::Core { core }) => {
                if self.plane_of_core(core) == j {
                    self.up_port(core % half)
                } else {
                    // Wrong plane: descend to an edge, which rises
                    // through the right one.
                    Port::from_index(self.spread(dest))
                }
            }
            (Switch::Agg { idx: j, .. }, _) => {
                // Destination in another pod: rise to any core of this
                // plane — every core reaches every pod.
                let _ = j;
                self.up_port(self.spread(dest))
            }
            (Switch::Core { .. }, Switch::Edge { pod: p2, .. })
            | (Switch::Core { .. }, Switch::Agg { pod: p2, .. }) => Port::from_index(p2),
            (Switch::Core { .. }, Switch::Core { .. }) => {
                // Core-to-core (only defensive: no traffic terminates at
                // a core): descend anywhere, the pod re-routes upward.
                Port::from_index(dest.index() % self.cfg.k)
            }
        };
        Some(port)
    }

    fn estimate_hops_to_domain(&self, router: RouterId, domain: GroupId) -> &'static [HopKind] {
        use HopKind::{Global, Local};
        let d = domain.index();
        match self.switch(router) {
            Switch::Edge { pod, .. } if pod == d => &[Local, Local],
            Switch::Agg { pod, .. } if pod == d => &[Local],
            Switch::Core { .. } => &[Global, Local],
            Switch::Edge { .. } => &[Local, Global, Global, Local],
            Switch::Agg { .. } => &[Global, Global, Local],
        }
    }

    fn port_toward_domain(&self, router: RouterId, domain: GroupId) -> Port {
        debug_assert_ne!(self.domain_of_router(router), domain);
        match self.switch(router) {
            // Rise through a plane picked by the target domain so
            // different targets spread over the planes.
            Switch::Edge { .. } | Switch::Agg { .. } => {
                self.up_port(domain.index() % self.cfg.half())
            }
            // A core reaches every pod directly.
            Switch::Core { .. } => Port::from_index(domain.index()),
        }
    }

    fn direct_port_to_domain(&self, router: RouterId, domain: GroupId) -> Option<Port> {
        if self.domain_of_router(router) == domain {
            return None;
        }
        let half = self.cfg.half();
        match self.switch(router) {
            // Edge neighbours (aggs of the own pod) never reach another
            // domain in one hop.
            Switch::Edge { .. } => None,
            Switch::Agg { idx: j, .. } => {
                // An up-link reaches domain `d` iff its core lives in
                // `d`'s block.
                let block = self.core_block_start[domain.index()]
                    ..self.core_block_start[domain.index() + 1];
                (j * half..(j + 1) * half)
                    .find(|c| block.contains(c))
                    .map(|c| self.up_port(c % half))
            }
            Switch::Core { .. } => Some(Port::from_index(domain.index())),
        }
    }

    fn random_intermediate_router(
        &self,
        rng: &mut StdRng,
        src_domain: GroupId,
        dst_domain: GroupId,
    ) -> RouterId {
        let domain = self.random_intermediate_domain(rng, src_domain, dst_domain);
        // A node-bearing (edge) switch, so minimal routing towards it is
        // an ordinary up/down path.
        self.edge_router(domain.index(), rng.gen_range(0..self.cfg.half()))
    }

    fn random_escape_port(&self, rng: &mut StdRng, router: RouterId) -> Port {
        let half = self.cfg.half();
        match self.switch(router) {
            // Intra-pod links: an edge's up ports, an agg's down ports.
            Switch::Edge { .. } => self.up_port(rng.gen_range(0..half)),
            Switch::Agg { .. } => Port::from_index(rng.gen_range(0..half)),
            // Cores have no intra-domain links; any port is an escape.
            Switch::Core { .. } => Port::from_index(rng.gen_range(0..self.cfg.k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FatTree {
        FatTree::new(FatTreeConfig::tiny()) // k = 4
    }

    #[test]
    fn tiny_counts_match_the_closed_forms() {
        let t = topo();
        assert_eq!(t.num_routers(), 20, "16 pod switches + 4 cores");
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.num_domains(), 4);
        assert_eq!(t.max_nodes_per_router(), 2);
        assert_eq!(FatTreeConfig::small().nodes(), 128);
    }

    #[test]
    fn validation_rejects_odd_and_tiny_arity() {
        assert!(FatTreeConfig { k: 3 }.validate().is_err());
        assert!(FatTreeConfig { k: 1 }.validate().is_err());
        assert!(FatTreeConfig { k: 0 }.validate().is_err());
        assert!(FatTreeConfig { k: 4 }.validate().is_ok());
    }

    #[test]
    fn domain_ranges_are_contiguous_and_cover_everything() {
        let t = topo();
        let mut next_router = 0;
        let mut next_node = 0;
        for d in 0..t.num_domains() {
            let rr = t.router_range_of_domain(d);
            assert_eq!(rr.start, next_router, "router contiguity");
            next_router = rr.end;
            for r in rr {
                assert_eq!(t.domain_of_router(RouterId::from_index(r)).index(), d);
            }
            let nr = t.node_range_of_domain(d);
            assert_eq!(nr.start, next_node, "node contiguity");
            next_node = nr.end;
            for n in nr {
                assert_eq!(t.domain_of_node(NodeId::from_index(n)).index(), d);
            }
        }
        assert_eq!(next_router, t.num_routers());
        assert_eq!(next_node, t.num_nodes());
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
                    } => match t.neighbor(far, far_port) {
                        Neighbor::Router {
                            router: back,
                            port: back_port,
                        } => {
                            assert_eq!(back, router, "{router} port {port}");
                            assert_eq!(back_port, port);
                        }
                        Neighbor::Node(_) => panic!("fabric reverse resolved to a node"),
                    },
                    Neighbor::Node(_) => panic!("fabric port resolved to a node"),
                }
            }
        }
    }

    #[test]
    fn host_ports_map_to_attached_nodes_bijectively() {
        let t = topo();
        for n in 0..t.num_nodes() {
            let node = NodeId::from_index(n);
            let router = t.router_of_node(node);
            let port = t.ejection_port(node);
            assert_eq!(t.port_kind(router, port), PortKind::Host);
            assert_eq!(t.neighbor(router, port), Neighbor::Node(node));
        }
    }

    #[test]
    fn minimal_routes_reach_every_destination_within_the_diameter() {
        let t = topo();
        for src in 0..t.num_routers() {
            for dst in 0..t.num_routers() {
                let (src, dst) = (RouterId::from_index(src), RouterId::from_index(dst));
                let kinds = t.minimal_hop_kinds(src, dst);
                assert!(kinds.len() <= t.diameter(), "{src} -> {dst}: {kinds:?}");
                if src == dst {
                    assert!(kinds.is_empty());
                }
            }
        }
    }

    #[test]
    fn edge_to_edge_cross_pod_is_four_hops_through_the_core() {
        let t = topo();
        let src = t.router_of_node(NodeId(0));
        let dst = t.router_of_node(NodeId::from_index(t.num_nodes() - 1));
        let kinds = t.minimal_hop_kinds(src, dst);
        assert_eq!(
            kinds,
            vec![
                HopKind::Local,
                HopKind::Global,
                HopKind::Global,
                HopKind::Local
            ]
        );
    }

    #[test]
    fn cross_domain_links_are_always_global() {
        // The sharding contract: any link between routers of different
        // domains must carry the global (lookahead) latency.
        let t = topo();
        for r in 0..t.num_routers() {
            let router = RouterId::from_index(r);
            for p in t.host_ports(router)..t.radix(router) {
                let port = Port::from_index(p);
                let far = t.neighbor_router(router, port);
                if t.domain_of_router(far) != t.domain_of_router(router) {
                    assert_eq!(
                        t.port_kind(router, port),
                        PortKind::Global,
                        "cross-domain link {router} -> {far} must be global"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_port_to_domain_lands_in_the_domain() {
        let t = topo();
        for r in 0..t.num_routers() {
            let router = RouterId::from_index(r);
            for d in 0..t.num_domains() {
                let domain = GroupId::from_index(d);
                if let Some(port) = t.direct_port_to_domain(router, domain) {
                    assert_ne!(t.domain_of_router(router), domain);
                    assert_eq!(t.domain_of_router(t.neighbor_router(router, port)), domain);
                }
            }
        }
    }

    #[test]
    fn port_toward_domain_converges() {
        let t = topo();
        for r in 0..t.num_routers() {
            for d in 0..t.num_domains() {
                let domain = GroupId::from_index(d);
                let mut current = RouterId::from_index(r);
                if t.domain_of_router(current) == domain {
                    continue;
                }
                let mut hops = 0;
                while t.domain_of_router(current) != domain {
                    current = t.neighbor_router(current, t.port_toward_domain(current, domain));
                    hops += 1;
                    assert!(hops <= t.diameter(), "toward-domain walk looped");
                }
            }
        }
    }

    #[test]
    fn intermediate_routers_bear_nodes_and_avoid_endpoints() {
        use rand::SeedableRng;
        let t = topo();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let ir = t.random_intermediate_router(&mut rng, GroupId(0), GroupId(1));
            let d = t.domain_of_router(ir);
            assert_ne!(d, GroupId(0));
            assert_ne!(d, GroupId(1));
            assert!(t.host_ports(ir) > 0, "intermediate must bear nodes");
        }
    }
}
