//! Helpers shared by the baseline routing algorithms: the Valiant-leg
//! state machine and the UGAL congestion comparison.
//!
//! Everything here is expressed against the [`Topology`] trait —
//! "intermediate domain" instead of "intermediate group" — so the same
//! state machine drives Valiant/UGAL on the Dragonfly, the fat-tree and
//! the HyperX.

use dragonfly_engine::packet::{Packet, RouteMode, Via};
use dragonfly_engine::routing::{vc_for_next_hop, Decision, RouterCtx};
use dragonfly_topology::ids::{Port, RouterId};
use dragonfly_topology::Topology;
use serde::{Deserialize, Serialize};

/// The congestion value reported for a dead port in adaptive comparisons:
/// large enough to lose against every live alternative, small enough that
/// `2 * congestion + bias` cannot overflow.
pub const DEAD_CONGESTION: usize = usize::MAX / 4;

/// [`RouterCtx::congestion`] with fault awareness: a dead port reports
/// [`DEAD_CONGESTION`] so adaptive rules never pick it on purpose.
#[inline]
pub fn live_congestion(ctx: &RouterCtx<'_>, port: Port) -> usize {
    if ctx.port_up(port) {
        ctx.congestion(port)
    } else {
        DEAD_CONGESTION
    }
}

/// Keep `preferred` when its output port is alive; otherwise re-route the
/// packet onto a deterministically chosen live fabric port
/// ([`RouterCtx::live_fallback_port`] — no agent RNG is consumed, so the
/// RNG streams of faulted and un-faulted runs stay aligned until a fault
/// actually bites). During a total blackout (`None`) the preferred
/// decision is returned unchanged and the engine drops the packet.
pub fn fallback_if_dead(ctx: &RouterCtx<'_>, packet: &Packet, preferred: Decision) -> Decision {
    if ctx.port_up(preferred.port) {
        return preferred;
    }
    match ctx.live_fallback_port(packet) {
        Some(port) => Decision {
            port,
            vc: vc_for_next_hop(packet, ctx.num_vcs()),
        },
        None => preferred,
    }
}

/// Configuration of the adaptive (UGAL/PAR) decision rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Additive bias (in queue-occupancy units) in favour of the minimal
    /// path. The paper's experiments use 0.
    pub minimal_bias: usize,
    /// Number of random non-minimal candidates sampled per decision
    /// (the Cray-style implementation the paper cites samples two).
    pub nonminimal_candidates: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            minimal_bias: 0,
            nonminimal_candidates: 2,
        }
    }
}

/// The UGAL rule quoted in Section 2.2 of the paper: forward minimally when
/// the congestion of the minimal candidate is at most twice the congestion
/// of the non-minimal candidate (plus an optional bias). The `<=` keeps an
/// idle network on minimal paths.
#[inline]
pub fn prefer_minimal(
    minimal_congestion: usize,
    nonminimal_congestion: usize,
    bias: usize,
) -> bool {
    minimal_congestion <= 2 * nonminimal_congestion + bias
}

/// Advance the Valiant state machine of a packet at `router` and return the
/// next output port:
///
/// * while the intermediate target (router or domain) has not been reached,
///   forward minimally towards it;
/// * once reached, clear the Valiant leg and forward minimally towards the
///   destination.
pub fn valiant_port(ctx: &RouterCtx<'_>, router: RouterId, packet: &mut Packet) -> Port {
    let topo = ctx.topology;
    debug_assert_eq!(packet.route_mode(), RouteMode::Valiant);

    if !packet.reached_intermediate() {
        let reached = match packet.via() {
            Some(Via::Router(ir)) => router == ir,
            Some(Via::Group(ig)) => topo.domain_of_router(router) == ig,
            None => true,
        };
        if reached {
            packet.set_reached_intermediate();
        }
    }

    if packet.reached_intermediate() {
        return topo
            .minimal_port(router, packet.dst_router)
            .expect("valiant_port is never called at the destination router");
    }

    match packet.via() {
        Some(Via::Router(ir)) => topo
            .minimal_port(router, ir)
            .expect("intermediate router differs from the current router"),
        Some(Via::Group(ig)) => topo.port_toward_domain(router, ig),
        None => unreachable!("an unreached Valiant leg has an intermediate target"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::ports::PortKind;
    use dragonfly_topology::{
        AnyTopology, Dragonfly, FatTree, FatTreeConfig, HyperX, HyperXConfig,
    };

    #[test]
    fn ugal_rule_matches_the_paper_description() {
        // Idle network: stay minimal.
        assert!(prefer_minimal(0, 0, 0));
        // Minimal slightly congested but still under twice the non-minimal.
        assert!(prefer_minimal(4, 2, 0));
        // Minimal clearly worse than twice the alternative: go non-minimal.
        assert!(!prefer_minimal(9, 4, 0));
        // A bias keeps traffic on the minimal path longer.
        assert!(prefer_minimal(9, 4, 1));
    }

    #[test]
    fn port_toward_domain_uses_direct_links_when_available_on_the_dragonfly() {
        let df = Dragonfly::new(DragonflyConfig::tiny());
        let topo = AnyTopology::from(df.clone());
        for router in df.routers() {
            let my_group = df.group_of_router(router);
            for group in df.groups() {
                if group == my_group {
                    continue;
                }
                let port = topo.port_toward_domain(router, group);
                match df.port_kind(port) {
                    PortKind::Global => {
                        assert_eq!(df.global_neighbor_group(router, port), group);
                    }
                    PortKind::Local => {
                        let (gateway, _) = df.gateway(my_group, group);
                        assert_eq!(df.local_neighbor(router, port), gateway);
                    }
                    PortKind::Host => panic!("host port can never lead to another group"),
                }
            }
        }
    }

    #[test]
    fn port_toward_domain_makes_progress_on_every_topology() {
        let topologies: Vec<AnyTopology> = vec![
            Dragonfly::new(DragonflyConfig::tiny()).into(),
            FatTree::new(FatTreeConfig::tiny()).into(),
            HyperX::new(HyperXConfig::tiny()).into(),
        ];
        for topo in topologies {
            for router in topo.routers() {
                for domain in topo.domains() {
                    if topo.domain_of_router(router) == domain {
                        continue;
                    }
                    let mut current = router;
                    let mut hops = 0;
                    while topo.domain_of_router(current) != domain {
                        let port = topo.port_toward_domain(current, domain);
                        current = topo.neighbor_router(current, port);
                        hops += 1;
                        assert!(
                            hops <= topo.diameter(),
                            "{}: {router} never reached domain {domain}",
                            topo.kind_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn commit_helpers_set_the_expected_targets() {
        use dragonfly_topology::ids::{GroupId, NodeId};
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        // Node 0 (group 0) to node 40 (router 20, group 5).
        let mut p = Packet::new(&topo, 0, NodeId(0), NodeId(40), 0);
        p.commit_valiant(Some(Via::Group(GroupId(5))));
        assert_eq!(p.route_mode(), RouteMode::Valiant);
        assert_eq!(p.via(), Some(Via::Group(GroupId(5))));
        p.commit_valiant(Some(Via::Router(RouterId(17))));
        assert_eq!(p.via(), Some(Via::Router(RouterId(17))));
        assert!(!p.reached_intermediate());
    }
}
