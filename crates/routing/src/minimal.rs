//! Minimal (MIN) routing: every packet follows the unique shortest path,
//! at most local → global → local. Optimal under uniform random traffic,
//! pathological under adversarial patterns (the single global link between
//! the two groups becomes the bottleneck).

use crate::common::fallback_if_dead;
use dragonfly_engine::config::EngineConfig;
use dragonfly_engine::packet::Packet;
use dragonfly_engine::routing::{
    vc_for_next_hop, Decision, RouterAgent, RouterCtx, RoutingAlgorithm,
};
use dragonfly_topology::ids::RouterId;
use dragonfly_topology::{AnyTopology, Topology};

/// Number of virtual channels MIN requires (paper Section 2.2).
pub const MIN_VCS: usize = 2;

/// Factory for minimal-routing agents.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinRouting;

impl RoutingAlgorithm for MinRouting {
    fn name(&self) -> String {
        "MIN".to_string()
    }

    fn num_vcs(&self) -> usize {
        MIN_VCS
    }

    fn make_agent(
        &self,
        _topology: &AnyTopology,
        _config: &EngineConfig,
        router: RouterId,
        _seed: u64,
    ) -> Box<dyn RouterAgent> {
        Box::new(MinAgent { router })
    }
}

/// The per-router minimal-routing agent.
#[derive(Debug, Clone, Copy)]
pub struct MinAgent {
    router: RouterId,
}

impl RouterAgent for MinAgent {
    fn decide(&mut self, ctx: &RouterCtx<'_>, packet: &mut Packet) -> Decision {
        let port = ctx
            .topology
            .minimal_port(self.router, packet.dst_router)
            .expect("decide() is never called at the destination router");
        // MIN has no alternative path of its own; when a fault kills the
        // minimal port the packet escapes onto a live port (a VAL-style
        // detour) instead of being dropped.
        fallback_if_dead(
            ctx,
            packet,
            Decision {
                port,
                vc: vc_for_next_hop(packet, ctx.num_vcs()),
            },
        )
    }

    fn estimate(&self, ctx: &RouterCtx<'_>, packet: &Packet) -> f64 {
        let kinds = ctx
            .topology
            .minimal_hop_kinds(self.router, packet.dst_router);
        ctx.config.theoretical_delivery_ns(&kinds) as f64
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
    fn min_uses_two_vcs() {
        assert_eq!(MinRouting.num_vcs(), 2);
        assert_eq!(MinRouting.name(), "MIN");
    }

    #[test]
    fn all_paths_are_at_most_three_hops() {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let script: Vec<Injection> = (0..300u64)
            .map(|i| Injection {
                time: i * 64,
                src: NodeId((i % 72) as u32),
                dst: NodeId(((i * 31 + 5) % 72) as u32),
            })
            .collect();
        let algo = MinRouting;
        let mut engine = Engine::new(
            topo,
            EngineConfig::paper(algo.num_vcs()),
            &algo,
            Box::new(ScriptedInjector::new(script)),
            CountingObserver::default(),
            5,
        );
        engine.run_to_drain(50_000_000);
        let obs = engine.merged_observer();
        assert_eq!(obs.delivered, 300);
        assert!(obs.mean_hops() <= 3.0 + 1e-9);
    }
}
