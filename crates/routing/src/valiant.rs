//! Valiant non-minimal routing.
//!
//! * **VALg** (Valiant-global): route minimally to a uniformly random
//!   intermediate *group*, then minimally to the destination. Up to five
//!   hops, three VCs.
//! * **VALn** (Valiant-node): route minimally to a uniformly random
//!   intermediate *router* outside the source and destination groups, then
//!   minimally to the destination. The extra intra-group hop in the
//!   intermediate group sidesteps the local-link congestion that VALg
//!   suffers under patterns like ADV+4 (paper Figure 3). Up to six hops;
//!   this engine gives it five VCs (see [`VALN_VCS`]).
//!
//! Both are optimal (up to ~50 % throughput) under adversarial traffic and
//! waste half the bandwidth under uniform traffic.

use crate::common::{fallback_if_dead, valiant_port};
use dragonfly_engine::checkpoint::AgentCheckpoint;
use dragonfly_engine::config::EngineConfig;
use dragonfly_engine::packet::{Packet, RouteMode, Via};
use dragonfly_engine::routing::{
    vc_for_next_hop, Decision, RouterAgent, RouterCtx, RoutingAlgorithm,
};
use dragonfly_topology::ids::RouterId;
use dragonfly_topology::{AnyTopology, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// VCs required by VALg.
pub const VALG_VCS: usize = 3;
/// VCs required by VALn.
///
/// The paper quotes 4 VCs for VALn with a phase-based VC assignment (one VC
/// per path segment). This engine uses the simpler hop-indexed VC
/// assignment, which needs one extra VC to keep the channel-dependency
/// graph acyclic on 6-hop VALn paths; see DESIGN.md.
pub const VALN_VCS: usize = 5;

/// Factory for Valiant-global agents.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValiantGlobal;

impl RoutingAlgorithm for ValiantGlobal {
    fn name(&self) -> String {
        "VALg".to_string()
    }

    fn num_vcs(&self) -> usize {
        VALG_VCS
    }

    fn make_agent(
        &self,
        _topology: &AnyTopology,
        _config: &EngineConfig,
        router: RouterId,
        seed: u64,
    ) -> Box<dyn RouterAgent> {
        Box::new(ValiantAgent {
            router,
            node_level: false,
            rng: StdRng::seed_from_u64(seed),
        })
    }
}

/// Factory for Valiant-node agents.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValiantNode;

impl RoutingAlgorithm for ValiantNode {
    fn name(&self) -> String {
        "VALn".to_string()
    }

    fn num_vcs(&self) -> usize {
        VALN_VCS
    }

    fn make_agent(
        &self,
        _topology: &AnyTopology,
        _config: &EngineConfig,
        router: RouterId,
        seed: u64,
    ) -> Box<dyn RouterAgent> {
        Box::new(ValiantAgent {
            router,
            node_level: true,
            rng: StdRng::seed_from_u64(seed),
        })
    }
}

/// Shared agent for both Valiant flavours.
pub struct ValiantAgent {
    router: RouterId,
    /// `true` → VALn (intermediate router), `false` → VALg (intermediate
    /// group).
    node_level: bool,
    rng: StdRng,
}

impl RouterAgent for ValiantAgent {
    fn decide(&mut self, ctx: &RouterCtx<'_>, packet: &mut Packet) -> Decision {
        let topo = ctx.topology;

        // The source router commits the packet to its Valiant leg (unless
        // the destination is in the same domain, where the direct
        // intra-domain hop is already congestion-free by construction of
        // the pattern).
        if packet.at_source_router(topo, self.router)
            && packet.route_mode() == RouteMode::Minimal
            && topo.num_domains() > 2
        {
            let (src_group, dst_group) = (packet.src_group(topo), packet.dst_group());
            if src_group != dst_group {
                let via = if self.node_level {
                    Via::Router(topo.random_intermediate_router(
                        &mut self.rng,
                        src_group,
                        dst_group,
                    ))
                } else {
                    Via::Group(topo.random_intermediate_domain(&mut self.rng, src_group, dst_group))
                };
                packet.commit_valiant(Some(via));
            }
        }

        let port = match packet.route_mode() {
            RouteMode::Minimal => topo
                .minimal_port(self.router, packet.dst_router)
                .expect("decide() is never called at the destination router"),
            RouteMode::Valiant => valiant_port(ctx, self.router, packet),
        };
        fallback_if_dead(
            ctx,
            packet,
            Decision {
                port,
                vc: vc_for_next_hop(packet, ctx.num_vcs()),
            },
        )
    }

    fn estimate(&self, _ctx: &RouterCtx<'_>, _packet: &Packet) -> f64 {
        0.0
    }

    fn save_state(&self) -> AgentCheckpoint {
        AgentCheckpoint {
            rng: Some(self.rng.state()),
            ..Default::default()
        }
    }

    fn load_state(&mut self, state: &AgentCheckpoint) {
        if let Some(s) = state.rng {
            self.rng = StdRng::from_state(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_engine::injector::{Injection, ScriptedInjector};
    use dragonfly_engine::observer::CountingObserver;
    use dragonfly_engine::Engine;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::ids::NodeId;
    use dragonfly_topology::Dragonfly;

    fn run(algo: &dyn RoutingAlgorithm, packets: u64) -> CountingObserver {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes() as u64;
        let script: Vec<Injection> = (0..packets)
            .map(|i| Injection {
                time: i * 64,
                src: NodeId((i % n) as u32),
                dst: NodeId((((i * 37) + 11) % n) as u32),
            })
            .collect();
        let mut engine = Engine::new(
            topo,
            EngineConfig::paper(algo.num_vcs()),
            algo,
            Box::new(ScriptedInjector::new(script)),
            CountingObserver::default(),
            13,
        );
        engine.run_to_drain(100_000_000);
        *engine.observer()
    }

    #[test]
    fn vc_budgets() {
        assert_eq!(ValiantGlobal.num_vcs(), 3);
        // One more than the paper's 4: the hop-indexed VC assignment needs
        // it for deadlock freedom (see the VALN_VCS docs).
        assert_eq!(ValiantNode.num_vcs(), 5);
    }

    #[test]
    fn valg_delivers_everything_and_uses_longer_paths_than_min() {
        let obs = run(&ValiantGlobal, 400);
        assert_eq!(obs.delivered, 400);
        // Valiant paths average clearly more hops than the minimal <= 3.
        assert!(obs.mean_hops() > 3.0, "mean hops = {}", obs.mean_hops());
        assert!(obs.mean_hops() <= 5.0 + 1e-9);
    }

    #[test]
    fn valn_delivers_everything_within_six_hops() {
        let obs = run(&ValiantNode, 400);
        assert_eq!(obs.delivered, 400);
        assert!(obs.mean_hops() > 3.0);
        assert!(obs.mean_hops() <= 6.0 + 1e-9);
    }
}
