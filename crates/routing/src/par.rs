//! PAR — Progressive Adaptive Routing.
//!
//! PAR extends UGALn: the source router makes the usual adaptive choice, but
//! while a packet is still being routed *minimally inside its source group*,
//! the next source-group router is allowed to re-evaluate that decision
//! against the congestion it observes locally (which the source router could
//! not see). Switching to a non-minimal path at that point costs one extra
//! local hop, which is why PAR needs five virtual channels (up to seven
//! hops).

use crate::common::{
    fallback_if_dead, live_congestion, prefer_minimal, valiant_port, AdaptiveConfig,
};
use crate::ugal::{best_nonminimal_candidate, UgalMode};
use dragonfly_engine::checkpoint::AgentCheckpoint;
use dragonfly_engine::config::EngineConfig;
use dragonfly_engine::packet::{Packet, RouteMode, Via};
use dragonfly_engine::routing::{
    vc_for_next_hop, Decision, RouterAgent, RouterCtx, RoutingAlgorithm,
};
use dragonfly_topology::ids::{GroupId, RouterId};
use dragonfly_topology::{AnyTopology, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// VCs required by PAR (paper Section 2.2).
pub const PAR_VCS: usize = 5;

/// Factory for PAR agents.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParRouting {
    /// Bias / candidate-count configuration shared with UGAL.
    pub config: AdaptiveConfig,
}

impl RoutingAlgorithm for ParRouting {
    fn name(&self) -> String {
        "PAR".to_string()
    }

    fn num_vcs(&self) -> usize {
        PAR_VCS
    }

    fn make_agent(
        &self,
        _topology: &AnyTopology,
        _config: &EngineConfig,
        router: RouterId,
        seed: u64,
    ) -> Box<dyn RouterAgent> {
        Box::new(ParAgent {
            router,
            cfg: self.config,
            rng: StdRng::seed_from_u64(seed),
        })
    }
}

/// The per-router PAR agent.
pub struct ParAgent {
    router: RouterId,
    cfg: AdaptiveConfig,
    rng: StdRng,
}

impl ParAgent {
    /// The UGALn-style adaptive choice for a packet from `src_group`,
    /// shared by the source-router decision and the in-source-group
    /// re-evaluation.
    fn adaptive_choice(
        &mut self,
        ctx: &RouterCtx<'_>,
        src_group: GroupId,
        packet: &mut Packet,
    ) -> Decision {
        let topo = ctx.topology;
        let min_port = topo
            .minimal_port(self.router, packet.dst_router)
            .expect("adaptive choice is never made at the destination router");
        let min_congestion = live_congestion(ctx, min_port);
        if let Some(candidate) = best_nonminimal_candidate(
            ctx,
            &mut self.rng,
            self.router,
            src_group,
            packet,
            UgalMode::Node,
            self.cfg.nonminimal_candidates,
        ) {
            if !prefer_minimal(min_congestion, candidate.congestion, self.cfg.minimal_bias) {
                debug_assert!(
                    matches!(candidate.via, Via::Router(_)),
                    "node-level candidates always carry a router"
                );
                packet.commit_valiant(Some(candidate.via));
                return fallback_if_dead(
                    ctx,
                    packet,
                    Decision {
                        port: candidate.first_port,
                        vc: vc_for_next_hop(packet, ctx.num_vcs()),
                    },
                );
            }
        }
        fallback_if_dead(
            ctx,
            packet,
            Decision {
                port: min_port,
                vc: vc_for_next_hop(packet, ctx.num_vcs()),
            },
        )
    }
}

impl RouterAgent for ParAgent {
    fn decide(&mut self, ctx: &RouterCtx<'_>, packet: &mut Packet) -> Decision {
        let topo = ctx.topology;
        let my_domain = topo.domain_of_router(self.router);

        // Source router: the ordinary UGALn decision.
        if packet.at_source_router(topo, self.router) && packet.route_mode() == RouteMode::Minimal {
            return self.adaptive_choice(ctx, packet.src_group(topo), packet);
        }

        // Progressive re-evaluation: a *source-domain* router that receives
        // a packet still marked minimal may overturn the decision once.
        if packet.route_mode() == RouteMode::Minimal
            && !packet.par_reevaluated()
            && my_domain != packet.dst_group()
            && my_domain == packet.src_group(topo)
        {
            packet.set_par_reevaluated();
            return self.adaptive_choice(ctx, my_domain, packet);
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

    #[test]
    fn par_uses_five_vcs() {
        assert_eq!(ParRouting::default().num_vcs(), 5);
        assert_eq!(ParRouting::default().name(), "PAR");
    }

    #[test]
    fn par_delivers_uniform_traffic_with_reasonable_paths() {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes() as u64;
        let script: Vec<Injection> = (0..800u64)
            .map(|i| Injection {
                time: i * 40,
                src: NodeId((i % n) as u32),
                dst: NodeId((((i * 29) + 7) % n) as u32),
            })
            .collect();
        let algo = ParRouting::default();
        let mut engine = Engine::new(
            topo,
            EngineConfig::paper(algo.num_vcs()),
            &algo,
            Box::new(ScriptedInjector::new(script)),
            CountingObserver::default(),
            23,
        );
        engine.run_to_drain(200_000_000);
        let obs = engine.merged_observer();
        assert_eq!(obs.delivered, 800);
        assert!(obs.mean_hops() <= 7.0);
    }

    #[test]
    fn par_behaves_minimally_on_an_idle_network() {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes() as u64;
        let script: Vec<Injection> = (0..200u64)
            .map(|i| Injection {
                time: i * 3_000,
                src: NodeId((i % n) as u32),
                dst: NodeId((((i * 29) + 7) % n) as u32),
            })
            .collect();
        let algo = ParRouting::default();
        let mut engine = Engine::new(
            topo,
            EngineConfig::paper(algo.num_vcs()),
            &algo,
            Box::new(ScriptedInjector::new(script)),
            CountingObserver::default(),
            29,
        );
        engine.run_to_drain(200_000_000);
        let obs = engine.merged_observer();
        assert_eq!(obs.delivered, 200);
        assert!(obs.mean_hops() <= 3.05, "got {}", obs.mean_hops());
    }
}
