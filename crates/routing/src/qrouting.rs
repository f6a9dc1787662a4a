//! The original Q-routing baseline (Boyan & Littman, 1993), adapted to the
//! Dragonfly with the "naive" maxQ hop threshold discussed in
//! Section 2.3.2 of the paper.
//!
//! Every router keeps the full destination-router-indexed Q-table
//! (`m × (k−p)` entries). While a packet has taken fewer than `maxQ` hops,
//! the router forwards it through the port with the smallest Q-value
//! (with ε-greedy exploration); once the threshold is reached the packet is
//! forced onto the minimal path, which bounds the path length to
//! `maxQ + 3` hops and therefore prevents livelock and bounds the number of
//! virtual channels needed.
//!
//! The paper uses this scheme to show why vanilla Q-routing does not work
//! well on Dragonfly: no single `maxQ` suits both uniform and adversarial
//! traffic, and the huge table suffers from stale values.
//! `qadaptive-cli figure maxq` reproduces that study.

use dragonfly_engine::checkpoint::AgentCheckpoint;
use dragonfly_engine::config::EngineConfig;
use dragonfly_engine::packet::Packet;
use dragonfly_engine::routing::{
    vc_for_next_hop, Decision, FeedbackMsg, RouterAgent, RouterCtx, RoutingAlgorithm,
    DEAD_PORT_PENALTY_NS,
};
use dragonfly_topology::ids::{Port, RouterId};
use dragonfly_topology::{AnyTopology, Topology};
use qadaptive_core::hysteretic::HystereticLearner;
use qadaptive_core::init::{init_qtable, init_qtable_paged};
use qadaptive_core::paged::PagedQTable;
use qadaptive_core::policy::epsilon_greedy;
use qadaptive_core::qtable::QTable;
use qadaptive_core::table::QValueTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the Q-routing baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QRoutingConfig {
    /// Hop threshold after which packets are forced onto the minimal path.
    pub max_q: usize,
    /// Q-learning rate (Equation 1 of the paper).
    pub alpha: f64,
    /// ε-greedy exploration probability.
    pub epsilon: f64,
}

impl Default for QRoutingConfig {
    fn default() -> Self {
        Self {
            max_q: 2,
            alpha: 0.2,
            epsilon: 0.001,
        }
    }
}

/// Factory for Q-routing agents.
#[derive(Debug, Clone, Copy, Default)]
pub struct QRoutingMaxQ {
    /// Baseline configuration.
    pub config: QRoutingConfig,
}

impl QRoutingMaxQ {
    /// Q-routing with a specific hop threshold and default learning
    /// parameters.
    pub fn with_max_q(max_q: usize) -> Self {
        Self {
            config: QRoutingConfig {
                max_q,
                ..QRoutingConfig::default()
            },
        }
    }
}

impl RoutingAlgorithm for QRoutingMaxQ {
    fn name(&self) -> String {
        format!("Q-routing(maxQ={})", self.config.max_q)
    }

    fn num_vcs(&self) -> usize {
        // A packet takes at most maxQ free hops plus a 3-hop minimal tail.
        self.config.max_q + 3
    }

    fn make_agent(
        &self,
        topology: &AnyTopology,
        config: &EngineConfig,
        router: RouterId,
        seed: u64,
    ) -> Box<dyn RouterAgent> {
        // The destination-router-indexed table is the memory hog the paper
        // criticises (one row per router in the system); above the paging
        // threshold it switches to the lazy representation, which stores
        // a row once it has been written.
        let table = if topology.num_routers() > config.qtable_page_rows_threshold {
            QStorage::Paged(init_qtable_paged(topology, config, router))
        } else {
            QStorage::Dense(init_qtable(topology, config, router))
        };
        Box::new(QRoutingAgent {
            router,
            cfg: self.config,
            learner: HystereticLearner::plain(self.config.alpha),
            table,
            exploration_ports: topology.exploration_ports(router, None),
            host_ports: topology.host_ports(router),
            rng: StdRng::seed_from_u64(seed),
        })
    }
}

/// Q-routing's table storage: dense below the paging threshold, paged
/// above it. Both answer bit-identical values (same deterministic init),
/// so the choice never changes routing results.
enum QStorage {
    Dense(QTable),
    Paged(PagedQTable),
}

impl QStorage {
    /// The row holding estimates towards `dest` (mirrors [`QTable::row`]).
    fn row(&self, dest: RouterId) -> usize {
        match self {
            Self::Dense(t) => t.row(dest),
            Self::Paged(_) => dest.index(),
        }
    }

    fn best_for(&self, dest: RouterId) -> (usize, f64) {
        let row = self.row(dest);
        match self {
            Self::Dense(t) => t.best_in_row(row),
            Self::Paged(t) => t.best_in_row(row),
        }
    }

    fn value(&self, dest: RouterId, col: usize) -> f64 {
        self.get(self.row(dest), col)
    }

    fn get(&self, row: usize, col: usize) -> f64 {
        match self {
            Self::Dense(t) => t.get(row, col),
            Self::Paged(t) => t.get(row, col),
        }
    }

    fn set(&mut self, row: usize, col: usize, value: f64) {
        match self {
            Self::Dense(t) => t.set(row, col, value),
            Self::Paged(t) => t.set(row, col, value),
        }
    }

    fn as_table(&self) -> &dyn QValueTable {
        match self {
            Self::Dense(t) => t,
            Self::Paged(t) => t,
        }
    }

    fn as_table_mut(&mut self) -> &mut dyn QValueTable {
        match self {
            Self::Dense(t) => t,
            Self::Paged(t) => t,
        }
    }
}

/// The per-router Q-routing agent.
pub struct QRoutingAgent {
    router: RouterId,
    cfg: QRoutingConfig,
    learner: HystereticLearner,
    table: QStorage,
    exploration_ports: Vec<Port>,
    host_ports: usize,
    rng: StdRng,
}

impl QRoutingAgent {
    /// Read-only access to the learned table (for tests / analyses).
    pub fn table(&self) -> &dyn QValueTable {
        self.table.as_table()
    }

    /// Fault handling: when the chosen port is dead, penalise its Q-entry
    /// (so the table learns to avoid it without waiting for feedback that
    /// will never arrive) and deterministically re-route onto a live port.
    /// Consumes no RNG, keeping faulted and un-faulted streams aligned.
    fn resilient(&mut self, ctx: &RouterCtx<'_>, packet: &Packet, decision: Decision) -> Decision {
        if ctx.port_up(decision.port) {
            return decision;
        }
        let row = self.table.row(packet.dst_router);
        let col = decision.port.index() - self.host_ports;
        let current = self.table.get(row, col);
        let updated = self.learner.update(current, DEAD_PORT_PENALTY_NS, 0.0);
        self.table.set(row, col, updated);
        match ctx.live_fallback_port(packet) {
            Some(port) => Decision {
                port,
                vc: vc_for_next_hop(packet, ctx.num_vcs()),
            },
            None => decision,
        }
    }
}

impl RouterAgent for QRoutingAgent {
    fn decide(&mut self, ctx: &RouterCtx<'_>, packet: &mut Packet) -> Decision {
        let topo = ctx.topology;
        let port = if (packet.hops as usize) >= self.cfg.max_q {
            // Hop budget exhausted: force the minimal path.
            topo.minimal_port(self.router, packet.dst_router)
                .expect("decide() is never called at the destination router")
        } else {
            let (best_col, _) = self.table.best_for(packet.dst_router);
            let best_port = topo.port_for_column(self.router, best_col);
            epsilon_greedy(
                &mut self.rng,
                self.cfg.epsilon,
                best_port,
                &self.exploration_ports,
            )
        };
        let decision = Decision {
            port,
            vc: vc_for_next_hop(packet, ctx.num_vcs()),
        };
        self.resilient(ctx, packet, decision)
    }

    fn estimate(&self, _ctx: &RouterCtx<'_>, packet: &Packet) -> f64 {
        self.table.best_for(packet.dst_router).1
    }

    fn estimate_after_decision(
        &self,
        ctx: &RouterCtx<'_>,
        packet: &Packet,
        decision: Decision,
    ) -> f64 {
        // On-policy bootstrap: once the maxQ hop budget forces a packet onto
        // the minimal path, the row minimum no longer reflects the action
        // taken, so report the value of the chosen port instead.
        match ctx.topology.qtable_column(self.router, decision.port) {
            Some(col) => self.table.value(packet.dst_router, col),
            None => self.table.best_for(packet.dst_router).1,
        }
    }

    fn feedback(&mut self, msg: &FeedbackMsg) {
        let row = self.table.row(msg.dst_router);
        let col = msg.port.index() - self.host_ports;
        let current = self.table.get(row, col);
        let updated = self
            .learner
            .update(current, msg.reward_ns, msg.downstream_estimate_ns);
        self.table.set(row, col, updated);
    }

    fn save_state(&self) -> AgentCheckpoint {
        let (q_values, q_rows) = match &self.table {
            QStorage::Dense(t) => (t.values(), Vec::new()),
            QStorage::Paged(t) => {
                let rows = t.occupied_rows();
                (t.sparse_values(&rows), rows)
            }
        };
        AgentCheckpoint {
            rng: Some(self.rng.state()),
            q_values,
            counters: Vec::new(),
            q_rows,
        }
    }

    fn check_state(&self, state: &AgentCheckpoint) -> Result<(), String> {
        qadaptive_core::table::check_checkpoint_values(
            self.table.as_table(),
            &state.q_rows,
            &state.q_values,
        )
    }

    fn load_state(&mut self, state: &AgentCheckpoint) {
        if let Some(s) = state.rng {
            self.rng = StdRng::from_state(s);
        }
        qadaptive_core::table::load_checkpoint_values(
            self.table.as_table_mut(),
            &state.q_rows,
            &state.q_values,
        );
    }

    fn memory_bytes(&self) -> usize {
        self.table.as_table().memory_bytes()
            + self.exploration_ports.capacity() * std::mem::size_of::<Port>()
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
    fn vc_budget_grows_with_max_q() {
        assert_eq!(QRoutingMaxQ::with_max_q(0).num_vcs(), 3);
        assert_eq!(QRoutingMaxQ::with_max_q(2).num_vcs(), 5);
        assert_eq!(QRoutingMaxQ::with_max_q(4).num_vcs(), 7);
        assert!(QRoutingMaxQ::with_max_q(3).name().contains("maxQ=3"));
    }

    #[test]
    fn agent_is_no_larger_than_with_page_granular_tables() {
        // One agent per router: its size shows in the benchmark's heap
        // peaks, which repeat to the byte. 216 B is what it measured at the
        // commit before the lazy table's unit became the row (see
        // `crates/core/tests/paged_heap.rs` for the Q-adaptive side).
        assert!(std::mem::size_of::<QRoutingAgent>() <= 216);
    }

    #[test]
    fn hop_count_is_bounded_by_max_q_plus_three() {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes() as u64;
        let script: Vec<Injection> = (0..500u64)
            .map(|i| Injection {
                time: i * 50,
                src: NodeId((i % n) as u32),
                dst: NodeId((((i * 41) + 13) % n) as u32),
            })
            .collect();
        let algo = QRoutingMaxQ::with_max_q(2);
        let mut engine = Engine::new(
            topo,
            EngineConfig::paper(algo.num_vcs()),
            &algo,
            Box::new(ScriptedInjector::new(script)),
            CountingObserver::default(),
            31,
        );
        engine.run_to_drain(200_000_000);
        let obs = engine.merged_observer();
        assert_eq!(obs.delivered, 500);
        assert!(obs.mean_hops() <= (2 + 3) as f64);
    }

    #[test]
    fn untrained_table_follows_minimal_paths() {
        // With the theoretical initialisation and epsilon = 0, Q-routing
        // starts out identical to minimal routing.
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes() as u64;
        let script: Vec<Injection> = (0..200u64)
            .map(|i| Injection {
                time: i * 500,
                src: NodeId((i % n) as u32),
                dst: NodeId((((i * 41) + 13) % n) as u32),
            })
            .collect();
        let algo = QRoutingMaxQ {
            config: QRoutingConfig {
                max_q: 3,
                alpha: 0.0,
                epsilon: 0.0,
            },
        };
        let mut engine = Engine::new(
            topo,
            EngineConfig::paper(algo.num_vcs()),
            &algo,
            Box::new(ScriptedInjector::new(script)),
            CountingObserver::default(),
            37,
        );
        engine.run_to_drain(100_000_000);
        let obs = engine.merged_observer();
        assert_eq!(obs.delivered, 200);
        assert!(obs.mean_hops() <= 3.0 + 1e-9);
    }
}
