//! UGAL — Universal Globally-Adaptive Load-balanced routing.
//!
//! The source router chooses between the (unique) minimal path and the
//! least-congested of a few random non-minimal candidates, using only local
//! congestion information: output-queue occupancy plus used credits. The
//! paper's rule is applied literally: forward minimally when the minimal
//! candidate's congestion is at most twice the non-minimal candidate's
//! congestion (plus an optional bias, zero in the paper's experiments).
//!
//! * **UGALg** compares against VALg-style paths (random intermediate
//!   group) and needs 3 VCs.
//! * **UGALn** compares against VALn-style paths (random intermediate
//!   router, rerouted inside the intermediate group) and needs 5 VCs in
//!   this engine (the paper quotes 4 with a phase-based VC assignment; see
//!   [`crate::valiant::VALN_VCS`]).

use crate::common::{
    fallback_if_dead, live_congestion, prefer_minimal, valiant_port, AdaptiveConfig,
};
use dragonfly_engine::checkpoint::AgentCheckpoint;
use dragonfly_engine::config::EngineConfig;
use dragonfly_engine::packet::{Packet, RouteMode, Via};
use dragonfly_engine::routing::{
    vc_for_next_hop, Decision, RouterAgent, RouterCtx, RoutingAlgorithm,
};
use dragonfly_topology::ids::{GroupId, Port, RouterId};
use dragonfly_topology::{AnyTopology, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// VCs required by UGALg (same as VALg).
pub const UGALG_VCS: usize = 3;
/// VCs required by UGALn (same as VALn; one more than the paper quotes —
/// see [`crate::valiant::VALN_VCS`]).
pub const UGALN_VCS: usize = 5;

/// Whether the non-minimal candidates are group-level (VALg) or node-level
/// (VALn) detours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UgalMode {
    /// Compare against Valiant-global candidates.
    Global,
    /// Compare against Valiant-node candidates.
    Node,
}

/// UGAL with Valiant-global non-minimal candidates.
#[derive(Debug, Clone, Copy, Default)]
pub struct UgalG {
    /// Bias / candidate-count configuration.
    pub config: AdaptiveConfig,
}

impl RoutingAlgorithm for UgalG {
    fn name(&self) -> String {
        "UGALg".to_string()
    }

    fn num_vcs(&self) -> usize {
        UGALG_VCS
    }

    fn make_agent(
        &self,
        _topology: &AnyTopology,
        _config: &EngineConfig,
        router: RouterId,
        seed: u64,
    ) -> Box<dyn RouterAgent> {
        Box::new(UgalAgent {
            router,
            mode: UgalMode::Global,
            cfg: self.config,
            rng: StdRng::seed_from_u64(seed),
        })
    }
}

/// UGAL with Valiant-node non-minimal candidates.
#[derive(Debug, Clone, Copy, Default)]
pub struct UgalN {
    /// Bias / candidate-count configuration.
    pub config: AdaptiveConfig,
}

impl RoutingAlgorithm for UgalN {
    fn name(&self) -> String {
        "UGALn".to_string()
    }

    fn num_vcs(&self) -> usize {
        UGALN_VCS
    }

    fn make_agent(
        &self,
        _topology: &AnyTopology,
        _config: &EngineConfig,
        router: RouterId,
        seed: u64,
    ) -> Box<dyn RouterAgent> {
        Box::new(UgalAgent {
            router,
            mode: UgalMode::Node,
            cfg: self.config,
            rng: StdRng::seed_from_u64(seed),
        })
    }
}

/// A non-minimal candidate under consideration at the source router.
pub(crate) struct NonMinimalCandidate {
    pub first_port: Port,
    pub congestion: usize,
    pub via: Via,
}

/// Sample `count` random non-minimal candidates for a packet from
/// `src_group` and return the least congested one, or `None` when the
/// topology has no intermediate domain.
pub(crate) fn best_nonminimal_candidate(
    ctx: &RouterCtx<'_>,
    rng: &mut StdRng,
    router: RouterId,
    src_group: GroupId,
    packet: &Packet,
    mode: UgalMode,
    count: usize,
) -> Option<NonMinimalCandidate> {
    let topo = ctx.topology;
    let dst_group = packet.dst_group();
    if topo.num_domains() <= 2 || src_group == dst_group {
        return None;
    }
    let mut best: Option<NonMinimalCandidate> = None;
    for _ in 0..count.max(1) {
        let candidate = match mode {
            UgalMode::Global => {
                let ig = topo.random_intermediate_domain(rng, src_group, dst_group);
                let first_port = topo.port_toward_domain(router, ig);
                NonMinimalCandidate {
                    first_port,
                    congestion: live_congestion(ctx, first_port),
                    via: Via::Group(ig),
                }
            }
            UgalMode::Node => {
                let ir = topo.random_intermediate_router(rng, src_group, dst_group);
                let first_port = topo
                    .minimal_port(router, ir)
                    .expect("intermediate router is never the current router");
                NonMinimalCandidate {
                    first_port,
                    congestion: live_congestion(ctx, first_port),
                    via: Via::Router(ir),
                }
            }
        };
        match &best {
            Some(b) if b.congestion <= candidate.congestion => {}
            _ => best = Some(candidate),
        }
    }
    best
}

/// The per-router UGAL agent (used for both flavours).
pub struct UgalAgent {
    router: RouterId,
    mode: UgalMode,
    cfg: AdaptiveConfig,
    rng: StdRng,
}

impl RouterAgent for UgalAgent {
    fn decide(&mut self, ctx: &RouterCtx<'_>, packet: &mut Packet) -> Decision {
        let topo = ctx.topology;

        if packet.route_mode() == RouteMode::Minimal && packet.at_source_router(topo, self.router) {
            let min_port = topo
                .minimal_port(self.router, packet.dst_router)
                .expect("source router differs from the destination router");
            let min_congestion = live_congestion(ctx, min_port);
            if let Some(candidate) = best_nonminimal_candidate(
                ctx,
                &mut self.rng,
                self.router,
                packet.src_group(topo),
                packet,
                self.mode,
                self.cfg.nonminimal_candidates,
            ) {
                if !prefer_minimal(min_congestion, candidate.congestion, self.cfg.minimal_bias) {
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
            return fallback_if_dead(
                ctx,
                packet,
                Decision {
                    port: min_port,
                    vc: vc_for_next_hop(packet, ctx.num_vcs()),
                },
            );
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

    fn run_uniform(algo: &dyn RoutingAlgorithm, interval: u64) -> CountingObserver {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes() as u64;
        let script: Vec<Injection> = (0..600u64)
            .map(|i| Injection {
                time: i * interval,
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
            17,
        );
        engine.run_to_drain(200_000_000);
        *engine.observer()
    }

    #[test]
    fn vc_budgets() {
        assert_eq!(UgalG::default().num_vcs(), 3);
        assert_eq!(UgalN::default().num_vcs(), 5);
    }

    #[test]
    fn ugal_behaves_minimally_on_an_idle_network() {
        // With large inter-arrival gaps there is never queueing, so UGAL
        // should follow minimal paths almost always.
        let obs = run_uniform(&UgalG::default(), 2_000);
        assert_eq!(obs.delivered, 600);
        assert!(
            obs.mean_hops() <= 3.05,
            "idle UGAL should look minimal, got {} hops",
            obs.mean_hops()
        );
        let obs = run_uniform(&UgalN::default(), 2_000);
        assert_eq!(obs.delivered, 600);
        assert!(obs.mean_hops() <= 3.05);
    }

    #[test]
    fn ugal_delivers_under_pressure() {
        let obs = run_uniform(&UgalG::default(), 16);
        assert_eq!(obs.delivered, 600);
        let obs = run_uniform(&UgalN::default(), 16);
        assert_eq!(obs.delivered, 600);
    }
}
