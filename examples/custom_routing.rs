//! Extending the library: implement a custom routing algorithm against the
//! engine's `RoutingAlgorithm` / `RouterAgent` traits and evaluate it with
//! the same harness used for the paper's algorithms.
//!
//! The toy algorithm below ("coin-flip Valiant") routes each packet
//! minimally or through a random intermediate group with 50/50 probability,
//! regardless of congestion — a deliberately naive midpoint between MIN and
//! VALg that is easy to reason about.
//!
//! ```text
//! cargo run --release --example custom_routing
//! ```

use qadaptive::engine::config::EngineConfig;
use qadaptive::engine::injector::{Injection, TrafficInjector};
use qadaptive::engine::observer::CountingObserver;
use qadaptive::engine::packet::{Packet, RouteMode, Via};
use qadaptive::engine::routing::{
    vc_for_next_hop, Decision, RouterAgent, RouterCtx, RoutingAlgorithm,
};
use qadaptive::engine::Engine;
use qadaptive::prelude::*;
use qadaptive::topology::ids::{NodeId, RouterId};
use qadaptive::topology::{AnyTopology, Dragonfly, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Coin-flip Valiant: 50 % minimal, 50 % Valiant-global, decided at the
/// source router.
struct CoinFlipValiant;

impl RoutingAlgorithm for CoinFlipValiant {
    fn name(&self) -> String {
        "CoinFlip".to_string()
    }

    fn num_vcs(&self) -> usize {
        3
    }

    fn make_agent(
        &self,
        _topology: &AnyTopology,
        _config: &EngineConfig,
        router: RouterId,
        seed: u64,
    ) -> Box<dyn RouterAgent> {
        Box::new(CoinFlipAgent {
            router,
            rng: StdRng::seed_from_u64(seed),
        })
    }
}

struct CoinFlipAgent {
    router: RouterId,
    rng: StdRng,
}

impl RouterAgent for CoinFlipAgent {
    fn decide(&mut self, ctx: &RouterCtx<'_>, packet: &mut Packet) -> Decision {
        let topo = ctx.topology;
        // The source group derives from the source node; the destination
        // group is stored (it indexes Q-tables on every decision).
        let src_group = packet.src_group(topo);
        if packet.at_source_router(topo, self.router)
            && packet.route_mode() == RouteMode::Minimal
            && src_group != packet.dst_group()
            && self.rng.gen_bool(0.5)
        {
            let ig = topo.random_intermediate_domain(&mut self.rng, src_group, packet.dst_group());
            packet.commit_valiant(Some(Via::Group(ig)));
        }
        let port = match (packet.route_mode(), packet.via()) {
            (RouteMode::Valiant, Some(Via::Group(ig))) if !packet.reached_intermediate() => {
                if topo.domain_of_router(self.router) == ig {
                    packet.set_reached_intermediate();
                    topo.minimal_port(self.router, packet.dst_router).unwrap()
                } else {
                    // Topology-agnostic: the trait picks the Dragonfly
                    // gateway hop, the fat-tree up-link or the HyperX
                    // column link as appropriate.
                    topo.port_toward_domain(self.router, ig)
                }
            }
            _ => topo.minimal_port(self.router, packet.dst_router).unwrap(),
        };
        Decision {
            port,
            vc: vc_for_next_hop(packet, ctx.num_vcs()),
        }
    }

    fn estimate(&self, _ctx: &RouterCtx<'_>, _packet: &Packet) -> f64 {
        0.0
    }
}

/// Drive the custom algorithm directly through the engine with a scripted
/// uniform workload (an `ExperimentSpec` only names the built-in
/// algorithms, so this example shows the lower-level API).
fn evaluate(algo: &dyn RoutingAlgorithm) -> CountingObserver {
    let topo = Dragonfly::new(DragonflyConfig::tiny());
    let n = topo.num_nodes() as u64;
    let script: Vec<Injection> = (0..20_000u64)
        .map(|i| Injection {
            time: i * 4,
            src: NodeId((i % n) as u32),
            dst: NodeId((((i * 37) + 11) % n) as u32),
        })
        .collect();
    struct V(Vec<Injection>, usize);
    impl TrafficInjector for V {
        fn next_injection(&mut self) -> Option<Injection> {
            let i = self.0.get(self.1).copied();
            self.1 += 1;
            i
        }
    }
    let cfg = EngineConfig::paper(algo.num_vcs());
    let mut engine = Engine::new(
        topo,
        cfg,
        algo,
        Box::new(V(script, 0)),
        CountingObserver::default(),
        3,
    );
    engine.run_to_drain(10_000_000);
    *engine.observer()
}

fn main() {
    println!("Custom routing algorithm through the public RouterAgent trait\n");
    for (label, algo) in [
        ("CoinFlip", &CoinFlipValiant as &dyn RoutingAlgorithm),
        ("MIN", &qadaptive::routing::MinRouting),
        (
            "Q-adaptive",
            &qadaptive::core::QAdaptiveRouting::paper_1056(),
        ),
    ] {
        let obs = evaluate(algo);
        println!(
            "{:<12} delivered={:>6}  mean latency={:>8.2} µs  mean hops={:>5.2}",
            label,
            obs.delivered,
            obs.mean_latency_ns() / 1_000.0,
            obs.mean_hops()
        );
    }
    println!(
        "\nCoin-flipping wastes bandwidth under uniform traffic (longer paths, higher\n\
         latency); congestion-aware and learning algorithms avoid that."
    );
}
