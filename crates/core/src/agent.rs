//! The Q-adaptive routing algorithm (Figure 4 of the paper).
//!
//! Each router is an independent agent holding one two-level Q-table.
//! A packet is routed as follows:
//!
//! 1. routers in the packet's **destination domain** forward minimally;
//! 2. the **source router** compares the minimal-path port against the best
//!    port of the Q-table row using the relative gap ΔV and the threshold
//!    `q_thld1`, then applies ε-greedy exploration;
//! 3. the **first router visited in an intermediate domain** forwards
//!    minimally when it owns a direct link into the destination domain;
//!    otherwise it compares the minimal forwarding port against a *random
//!    intra-domain escape* port (the Valiant-node style reroute that
//!    sidesteps local-link congestion) using `q_thld2`, then applies
//!    ε-greedy exploration;
//! 4. every other router forwards minimally.
//!
//! The algorithm is expressed purely in terms of the
//! [`Topology`] abstraction — destination *domain* instead of Dragonfly
//! group, `direct_port_to_domain` instead of "own global link" — so the
//! same agent runs unchanged on the Dragonfly (bit-for-bit identical to
//! the pre-trait implementation), the fat-tree (where the source-router
//! decision learns which up-plane is least congested) and the HyperX.
//!
//! Q-values are updated with hysteretic Q-learning from the per-hop
//! feedback the engine delivers (reward = per-hop delay, bootstrap = the
//! downstream router's own estimate).

use crate::hysteretic::HystereticLearner;
use crate::init::{init_two_level_paged, init_two_level_table};
use crate::paged::PagedQTable;
use crate::params::QAdaptiveParams;
use crate::policy::{epsilon_greedy, select_with_bias};
use crate::table::QValueTable;
use crate::two_level::TwoLevelQTable;
use dragonfly_engine::checkpoint::AgentCheckpoint;
use dragonfly_engine::config::EngineConfig;
use dragonfly_engine::packet::Packet;
use dragonfly_engine::routing::{
    vc_for_next_hop, Decision, FeedbackMsg, RouterAgent, RouterCtx, RoutingAlgorithm,
    DEAD_PORT_PENALTY_NS,
};
use dragonfly_topology::ids::{GroupId, Port, RouterId};
use dragonfly_topology::{AnyTopology, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of virtual channels Q-adaptive requires (paper Section 4:
/// packets are delivered within five hops and increment their VC per hop).
pub const QADAPTIVE_VCS: usize = 5;

/// Factory for Q-adaptive router agents.
#[derive(Debug, Clone, Copy)]
pub struct QAdaptiveRouting {
    /// Hyper-parameters shared by every agent.
    pub params: QAdaptiveParams,
}

impl QAdaptiveRouting {
    /// Q-adaptive with the given hyper-parameters.
    pub fn new(params: QAdaptiveParams) -> Self {
        params
            .validate()
            .expect("invalid Q-adaptive hyper-parameters");
        Self { params }
    }

    /// Q-adaptive with the paper's 1,056-node hyper-parameters.
    pub fn paper_1056() -> Self {
        Self::new(QAdaptiveParams::paper_1056())
    }

    /// Q-adaptive with the paper's 2,550-node hyper-parameters.
    pub fn paper_2550() -> Self {
        Self::new(QAdaptiveParams::paper_2550())
    }
}

impl Default for QAdaptiveRouting {
    fn default() -> Self {
        Self::paper_1056()
    }
}

impl RoutingAlgorithm for QAdaptiveRouting {
    fn name(&self) -> String {
        "Q-adaptive".to_string()
    }

    fn num_vcs(&self) -> usize {
        QADAPTIVE_VCS
    }

    fn make_agent(
        &self,
        topology: &AnyTopology,
        config: &EngineConfig,
        router: RouterId,
        seed: u64,
    ) -> Box<dyn RouterAgent> {
        Box::new(QAdaptiveAgent::new(
            topology,
            config,
            router,
            self.params,
            seed,
        ))
    }
}

/// The agent's Q-value storage: dense for paper-scale systems, paged for
/// the 100k-node-class scale runs, selected at construction by
/// [`EngineConfig::qtable_page_rows_threshold`]. Both kinds produce
/// bit-identical values (the paged init evaluates the same closed form the
/// dense init fills eagerly), so the threshold is a pure memory/CPU trade
/// with no effect on results.
pub(crate) enum TwoLevelStorage {
    Dense(TwoLevelQTable),
    Paged {
        table: PagedQTable,
        nodes_per_router: usize,
    },
}

impl TwoLevelStorage {
    /// The row holding estimates towards `(domain, src_slot)` — mirrors
    /// [`TwoLevelQTable::row`] for the paged representation.
    pub(crate) fn row(&self, domain: GroupId, src_slot: u8) -> usize {
        match self {
            Self::Dense(t) => t.row(domain, src_slot),
            Self::Paged {
                nodes_per_router, ..
            } => domain.index() * nodes_per_router + src_slot as usize,
        }
    }

    /// Row-minimum column and value for `(domain, src_slot)` — mirrors
    /// [`TwoLevelQTable::best_for`].
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn best_for(&self, domain: GroupId, src_slot: u8) -> (usize, f64) {
        self.best_in_row(self.row(domain, src_slot))
    }

    pub(crate) fn get(&self, row: usize, col: usize) -> f64 {
        match self {
            Self::Dense(t) => t.get(row, col),
            Self::Paged { table, .. } => table.get(row, col),
        }
    }

    pub(crate) fn set(&mut self, row: usize, col: usize, value: f64) {
        match self {
            Self::Dense(t) => t.set(row, col, value),
            Self::Paged { table, .. } => table.set(row, col, value),
        }
    }

    pub(crate) fn best_in_row(&self, row: usize) -> (usize, f64) {
        match self {
            Self::Dense(t) => t.best_in_row(row),
            Self::Paged { table, .. } => table.best_in_row(row),
        }
    }

    pub(crate) fn min_in_row(&self, row: usize) -> f64 {
        self.best_in_row(row).1
    }

    pub(crate) fn columns(&self) -> usize {
        self.as_table().columns()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn rows(&self) -> usize {
        self.as_table().rows()
    }

    pub(crate) fn as_table(&self) -> &dyn QValueTable {
        match self {
            Self::Dense(t) => t,
            Self::Paged { table, .. } => table,
        }
    }

    pub(crate) fn as_table_mut(&mut self) -> &mut dyn QValueTable {
        match self {
            Self::Dense(t) => t,
            Self::Paged { table, .. } => table,
        }
    }

    /// Checkpoint form: `(q_values, q_rows)` — full row-major values with
    /// empty rows for dense storage, the sparse written-rows form for
    /// paged storage.
    pub(crate) fn checkpoint_values(&self) -> (Vec<f64>, Vec<u32>) {
        match self {
            Self::Dense(t) => (t.values(), Vec::new()),
            Self::Paged { table, .. } => {
                let rows = table.occupied_rows();
                (table.sparse_values(&rows), rows)
            }
        }
    }
}

/// The per-router Q-adaptive agent.
pub struct QAdaptiveAgent {
    router: RouterId,
    domain: GroupId,
    params: QAdaptiveParams,
    learner: HystereticLearner,
    table: TwoLevelStorage,
    rng: StdRng,
    exploration_ports: Vec<Port>,
    /// Port index of this router's first fabric port (= its host-port
    /// count): translates a feedback [`Port`] into a Q-table column
    /// without consulting the topology.
    col_offset: usize,
    /// Statistics: feedback messages applied (useful for convergence
    /// analyses and tests).
    updates_applied: u64,
    /// Statistics: decisions taken at this router.
    decisions_made: u64,
    /// Statistics: decisions that deviated from the minimal port.
    nonminimal_decisions: u64,
}

impl QAdaptiveAgent {
    /// Build an agent with a Q-table initialised to congestion-free
    /// minimal delivery times.
    pub fn new(
        topo: &AnyTopology,
        cfg: &EngineConfig,
        router: RouterId,
        params: QAdaptiveParams,
        seed: u64,
    ) -> Self {
        let rows = topo.num_domains() * topo.max_nodes_per_router();
        let table = if rows > cfg.qtable_page_rows_threshold {
            TwoLevelStorage::Paged {
                table: init_two_level_paged(topo, cfg, router),
                nodes_per_router: topo.max_nodes_per_router(),
            }
        } else {
            TwoLevelStorage::Dense(init_two_level_table(topo, cfg, router))
        };
        Self {
            router,
            domain: topo.domain_of_router(router),
            params,
            learner: HystereticLearner::new(params.alpha, params.beta),
            table,
            rng: StdRng::seed_from_u64(seed),
            exploration_ports: topo.exploration_ports(router, None),
            col_offset: topo.host_ports(router),
            updates_applied: 0,
            decisions_made: 0,
            nonminimal_decisions: 0,
        }
    }

    /// Read-only access to the learned two-level table (dense or paged,
    /// depending on the system scale).
    pub fn table(&self) -> &dyn QValueTable {
        self.table.as_table()
    }

    /// Number of hysteretic updates applied so far.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Number of routing decisions made so far.
    pub fn decisions_made(&self) -> u64 {
        self.decisions_made
    }

    /// Fraction of decisions that deviated from the minimal port.
    pub fn nonminimal_fraction(&self) -> f64 {
        if self.decisions_made == 0 {
            0.0
        } else {
            self.nonminimal_decisions as f64 / self.decisions_made as f64
        }
    }

    /// The best column of `row`, with randomized tie-breaking: all columns
    /// whose value is within `NEAR_TIE_TOLERANCE` (relative) of the row
    /// minimum are considered equivalent and one is picked uniformly at
    /// random. Under heavy congestion many escape ports have statistically
    /// indistinguishable Q-values; a deterministic argmin would herd every
    /// packet onto a single port and oscillate, while randomized
    /// tie-breaking spreads the load the way the paper's results imply.
    fn best_column_randomized(&mut self, row: usize) -> (usize, f64) {
        const NEAR_TIE_TOLERANCE: f64 = 0.10;
        let (best_col, best_val) = self.table.best_in_row(row);
        if !best_val.is_finite() || best_val <= 0.0 {
            return (best_col, best_val);
        }
        let cutoff = best_val * (1.0 + NEAR_TIE_TOLERANCE);
        // Count-then-select keeps this allocation-free on the per-decision
        // hot path. The RNG is drawn exactly when the old collect-based
        // code drew it (only with two or more near-ties, with the same
        // range), so the decision stream is bit-identical.
        let columns = self.table.columns();
        let near = (0..columns)
            .filter(|&c| self.table.get(row, c) <= cutoff)
            .count();
        if near <= 1 {
            return (best_col, best_val);
        }
        let target = self.rng.gen_range(0..near);
        let pick = (0..columns)
            .filter(|&c| self.table.get(row, c) <= cutoff)
            .nth(target)
            .expect("near-tie count bounds the draw");
        (pick, self.table.get(row, pick))
    }

    fn minimal_decision(&self, ctx: &RouterCtx<'_>, packet: &Packet) -> Decision {
        let port = ctx
            .topology
            .minimal_port(self.router, packet.dst_router)
            .expect("decide() is never called at the destination router");
        Decision {
            port,
            vc: vc_for_next_hop(packet, ctx.num_vcs()),
        }
    }

    fn column_of(&self, ctx: &RouterCtx<'_>, port: Port) -> usize {
        ctx.topology
            .qtable_column(self.router, port)
            .expect("routing ports are always fabric ports")
    }

    /// Fault handling: when the chosen port is dead, penalise its Q-entry
    /// (hysteretic update towards [`DEAD_PORT_PENALTY_NS`], so the table
    /// learns to steer away without waiting for feedback that will never
    /// arrive) and deterministically re-route onto a live fabric port.
    /// Consumes no RNG, keeping the streams of faulted and un-faulted runs
    /// aligned until a fault actually bites.
    fn resilient(&mut self, ctx: &RouterCtx<'_>, packet: &Packet, decision: Decision) -> Decision {
        if ctx.port_up(decision.port) {
            return decision;
        }
        let row = self.table.row(packet.dst_group(), packet.src_slot);
        if let Some(col) = ctx.topology.qtable_column(self.router, decision.port) {
            let current = self.table.get(row, col);
            let updated = self.learner.update(current, DEAD_PORT_PENALTY_NS, 0.0);
            self.table.set(row, col, updated);
            self.updates_applied += 1;
        }
        match ctx.live_fallback_port(packet) {
            Some(port) => {
                self.nonminimal_decisions += 1;
                Decision {
                    port,
                    vc: vc_for_next_hop(packet, ctx.num_vcs()),
                }
            }
            None => decision,
        }
    }
}

impl RouterAgent for QAdaptiveAgent {
    fn decide(&mut self, ctx: &RouterCtx<'_>, packet: &mut Packet) -> Decision {
        self.decisions_made += 1;
        let topo = ctx.topology;
        let dst_domain = packet.dst_group();

        // (1) Destination-domain routers forward minimally.
        if self.domain == dst_domain {
            let d = self.minimal_decision(ctx, packet);
            return self.resilient(ctx, packet, d);
        }

        let row = self.table.row(dst_domain, packet.src_slot);
        let min_port = topo
            .minimal_port(self.router, packet.dst_router)
            .expect("non-destination router always has a minimal port");
        let min_col = self.column_of(ctx, min_port);
        let q_min = self.table.get(row, min_col);

        // (2) Source router: best-of-table vs minimal with q_thld1.
        if packet.at_source_router(topo, self.router) {
            let (best_col, q_best) = self.best_column_randomized(row);
            let best_port = topo.port_for_column(self.router, best_col);
            let temp = select_with_bias(q_min, q_best, min_port, best_port, self.params.q_thld1);
            let port = epsilon_greedy(
                &mut self.rng,
                self.params.epsilon,
                temp,
                &self.exploration_ports,
            );
            if port != min_port {
                self.nonminimal_decisions += 1;
                packet.commit_valiant(None);
            }
            let d = Decision {
                port,
                vc: vc_for_next_hop(packet, ctx.num_vcs()),
            };
            return self.resilient(ctx, packet, d);
        }

        // (3) First router visited in an intermediate domain.
        if !packet.int_group_decision_done() && packet.is_intermediate_group(topo, self.domain) {
            packet.set_int_group_decision_done();
            if let Some(direct) = topo.direct_port_to_domain(self.router, dst_domain) {
                // Direct connection into the destination domain: take it.
                let d = Decision {
                    port: direct,
                    vc: vc_for_next_hop(packet, ctx.num_vcs()),
                };
                return self.resilient(ctx, packet, d);
            }
            let rand_escape = topo.random_escape_port(&mut self.rng, self.router);
            let q_rand = self.table.get(row, self.column_of(ctx, rand_escape));
            let temp = select_with_bias(q_min, q_rand, min_port, rand_escape, self.params.q_thld2);
            let port = epsilon_greedy(
                &mut self.rng,
                self.params.epsilon,
                temp,
                &self.exploration_ports,
            );
            if port != min_port {
                self.nonminimal_decisions += 1;
            }
            let d = Decision {
                port,
                vc: vc_for_next_hop(packet, ctx.num_vcs()),
            };
            return self.resilient(ctx, packet, d);
        }

        // (4) Everybody else forwards minimally.
        let d = self.minimal_decision(ctx, packet);
        self.resilient(ctx, packet, d)
    }

    fn estimate(&self, _ctx: &RouterCtx<'_>, packet: &Packet) -> f64 {
        let row = self.table.row(packet.dst_group(), packet.src_slot);
        self.table.min_in_row(row)
    }

    fn estimate_after_decision(
        &self,
        ctx: &RouterCtx<'_>,
        packet: &Packet,
        decision: Decision,
    ) -> f64 {
        // SARSA-style bootstrap: report the value of the port this router is
        // actually using for the packet. Most routers on a path are forced
        // to forward minimally, so the row minimum would hide congestion on
        // the minimal leg from upstream routers.
        let row = self.table.row(packet.dst_group(), packet.src_slot);
        match ctx.topology.qtable_column(self.router, decision.port) {
            Some(col) => self.table.get(row, col),
            None => self.table.min_in_row(row),
        }
    }

    fn feedback(&mut self, msg: &FeedbackMsg) {
        let row = self.table.row(msg.dst_group, msg.src_slot);
        // The feedback port is a fabric port of this router; translate to a
        // table column (columns start at the first non-host port).
        let col = msg.port.index() - self.col_offset;
        let current = self.table.get(row, col);
        let updated = self
            .learner
            .update(current, msg.reward_ns, msg.downstream_estimate_ns);
        self.table.set(row, col, updated);
        self.updates_applied += 1;
    }

    fn save_state(&self) -> AgentCheckpoint {
        let (q_values, q_rows) = self.table.checkpoint_values();
        AgentCheckpoint {
            rng: Some(self.rng.state()),
            q_values,
            counters: vec![
                self.updates_applied,
                self.decisions_made,
                self.nonminimal_decisions,
            ],
            q_rows,
        }
    }

    fn check_state(&self, state: &AgentCheckpoint) -> Result<(), String> {
        crate::table::check_checkpoint_values(self.table.as_table(), &state.q_rows, &state.q_values)
    }

    fn load_state(&mut self, state: &AgentCheckpoint) {
        if let Some(s) = state.rng {
            self.rng = StdRng::from_state(s);
        }
        crate::table::load_checkpoint_values(
            self.table.as_table_mut(),
            &state.q_rows,
            &state.q_values,
        );
        let counter = |i: usize| state.counters.get(i).copied().unwrap_or(0);
        self.updates_applied = counter(0);
        self.decisions_made = counter(1);
        self.nonminimal_decisions = counter(2);
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

    fn topo() -> AnyTopology {
        Dragonfly::new(DragonflyConfig::tiny()).into()
    }

    #[test]
    fn factory_reports_five_vcs_and_name() {
        let algo = QAdaptiveRouting::default();
        assert_eq!(algo.num_vcs(), 5);
        assert_eq!(algo.name(), "Q-adaptive");
    }

    #[test]
    fn untrained_agent_prefers_the_minimal_path() {
        let t = topo();
        let cfg = EngineConfig::paper(QADAPTIVE_VCS);
        let algo = QAdaptiveRouting::new(QAdaptiveParams {
            epsilon: 0.0,
            ..QAdaptiveParams::paper_1056()
        });
        // End-to-end check through the engine: a handful of packets routed
        // by an untrained table must follow minimal (<= 3 hop) paths.
        let script: Vec<Injection> = (0..50)
            .map(|i| Injection {
                time: i * 200,
                src: NodeId((i % 16) as u32),
                dst: NodeId(((i * 7 + 31) % 72) as u32),
            })
            .collect();
        let mut engine = Engine::new(
            t,
            cfg,
            &algo,
            Box::new(ScriptedInjector::new(script)),
            CountingObserver::default(),
            11,
        );
        engine.run_to_drain(10_000_000);
        let obs = engine.observer();
        assert_eq!(obs.delivered, 50);
        assert!(
            obs.mean_hops() <= 3.0 + 1e-9,
            "untrained Q-adaptive must look minimal"
        );
    }

    #[test]
    fn feedback_updates_the_expected_cell() {
        let t = topo();
        let df = t.as_dragonfly().unwrap().clone();
        let cfg = EngineConfig::paper(QADAPTIVE_VCS);
        let mut agent = QAdaptiveAgent::new(&t, &cfg, RouterId(0), QAdaptiveParams::default(), 1);
        let port = df.layout().local_port(0);
        let row = agent.table.row(GroupId(3), 1);
        let col = df.layout().qtable_column(port).unwrap();
        let before = agent.table.get(row, col);
        let msg = FeedbackMsg {
            packet_id: 0,
            src: NodeId(1),
            dst: NodeId(30),
            dst_router: RouterId(15),
            dst_group: GroupId(3),
            src_slot: 1,
            port,
            reward_ns: 50.0,
            downstream_estimate_ns: 100.0,
        };
        agent.feedback(&msg);
        let after = agent.table.get(row, col);
        assert_ne!(before, after);
        assert_eq!(agent.updates_applied(), 1);
        // delta = 150 - before < 0 (before is ~700+), so the fast rate
        // applies and the estimate falls.
        assert!(after < before);
        // Unrelated cells untouched.
        assert_eq!(
            agent.table.get(agent.table.row(GroupId(2), 0), col),
            init_two_level_table(&t, &cfg, RouterId(0)).get(agent.table.row(GroupId(2), 0), col)
        );
    }

    #[test]
    fn repeated_bad_news_slowly_raises_the_estimate() {
        let t = topo();
        let df = t.as_dragonfly().unwrap().clone();
        let cfg = EngineConfig::paper(QADAPTIVE_VCS);
        let mut agent = QAdaptiveAgent::new(&t, &cfg, RouterId(0), QAdaptiveParams::default(), 1);
        let port = df.layout().global_port(0);
        let row = agent.table.row(GroupId(5), 0);
        let col = df.layout().qtable_column(port).unwrap();
        let before = agent.table.get(row, col);
        for _ in 0..10 {
            agent.feedback(&FeedbackMsg {
                packet_id: 0,
                src: NodeId(0),
                dst: NodeId(50),
                dst_router: RouterId(25),
                dst_group: GroupId(5),
                src_slot: 0,
                port,
                reward_ns: 5_000.0,
                downstream_estimate_ns: 2_000.0,
            });
        }
        let after = agent.table.get(row, col);
        assert!(after > before, "congestion news must raise the estimate");
        // ... but far less than a plain learner with alpha=0.2 would.
        assert!(after < 7_000.0 - 1.0);
    }

    #[test]
    fn estimate_returns_the_row_minimum() {
        let t = topo();
        let cfg = EngineConfig::paper(QADAPTIVE_VCS);
        let agent = QAdaptiveAgent::new(&t, &cfg, RouterId(4), QAdaptiveParams::default(), 1);
        let packet_row = agent.table.row(GroupId(2), 1);
        let expected = agent.table.min_in_row(packet_row);
        // The estimate used as the feedback bootstrap is the row minimum of
        // the (destination group, source slot) row.
        assert!(expected > 0.0);
        assert_eq!(agent.table.best_for(GroupId(2), 1).1, expected);
    }

    #[test]
    fn paged_agent_matches_dense_agent_and_checkpoints_cross_restore() {
        let t = topo();
        let df = t.as_dragonfly().unwrap().clone();
        let dense_cfg = EngineConfig::paper(QADAPTIVE_VCS);
        let mut paged_cfg = dense_cfg;
        paged_cfg.qtable_page_rows_threshold = 0;
        let params = QAdaptiveParams::default();
        let mut dense = QAdaptiveAgent::new(&t, &dense_cfg, RouterId(0), params, 9);
        let mut paged = QAdaptiveAgent::new(&t, &paged_cfg, RouterId(0), params, 9);
        assert!(matches!(dense.table, TwoLevelStorage::Dense(_)));
        assert!(matches!(paged.table, TwoLevelStorage::Paged { .. }));

        // Drive both through the same feedback stream; every value must
        // track bit for bit.
        let domains = t.num_domains();
        for i in 0..300u64 {
            let port = if i % 3 == 0 {
                df.layout().global_port(0)
            } else {
                df.layout().local_port((i % 2) as usize)
            };
            let msg = FeedbackMsg {
                packet_id: i,
                src: NodeId(0),
                dst: NodeId(40),
                dst_router: RouterId(20),
                dst_group: GroupId::from_index((i as usize * 5 + 1) % domains),
                src_slot: (i % 2) as u8,
                port,
                reward_ns: 40.0 + (i % 17) as f64 * 13.0,
                downstream_estimate_ns: 90.0 + (i % 11) as f64 * 7.0,
            };
            dense.feedback(&msg);
            paged.feedback(&msg);
        }
        assert_eq!(
            dense.table.as_table().values(),
            paged.table.as_table().values()
        );
        assert!(dense.table.as_table().memory_bytes() > 0);
        // A paged agent pays for the rows it has written (plus, at this
        // scale, an index larger than they are); an untouched one for no
        // table at all.
        let fresh_paged = QAdaptiveAgent::new(&t, &paged_cfg, RouterId(0), params, 9);
        assert!(fresh_paged.memory_bytes() < paged.memory_bytes());
        assert!(fresh_paged.memory_bytes() < dense.memory_bytes());

        // Checkpoints cross-restore: the sparse form into dense storage and
        // the dense form into paged storage both reproduce the values.
        let dense_ck = dense.save_state();
        let paged_ck = paged.save_state();
        assert!(dense_ck.q_rows.is_empty());
        assert!(!paged_ck.q_rows.is_empty());

        let mut dense_from_sparse = QAdaptiveAgent::new(&t, &dense_cfg, RouterId(0), params, 9);
        dense_from_sparse.load_state(&paged_ck);
        assert_eq!(
            dense_from_sparse.table.as_table().values(),
            dense.table.as_table().values()
        );

        let mut paged_from_dense = QAdaptiveAgent::new(&t, &paged_cfg, RouterId(0), params, 9);
        paged_from_dense.load_state(&dense_ck);
        assert_eq!(
            paged_from_dense.table.as_table().values(),
            paged.table.as_table().values()
        );

        // Sparse → fresh paged agent restores values AND the stored rows.
        let mut paged_resume = QAdaptiveAgent::new(&t, &paged_cfg, RouterId(0), params, 9);
        paged_resume.load_state(&paged_ck);
        assert_eq!(
            paged_resume.table.as_table().values(),
            paged.table.as_table().values()
        );
        assert_eq!(paged_resume.memory_bytes(), paged.memory_bytes());
        assert_eq!(paged_resume.save_state(), paged_ck);
    }

    #[test]
    fn agents_build_on_every_topology_with_matching_table_shapes() {
        use dragonfly_topology::{FatTree, FatTreeConfig, HyperX, HyperXConfig};
        let cfg = EngineConfig::paper(QADAPTIVE_VCS);
        let topologies: Vec<AnyTopology> = vec![
            Dragonfly::new(DragonflyConfig::tiny()).into(),
            FatTree::new(FatTreeConfig::tiny()).into(),
            HyperX::new(HyperXConfig::tiny()).into(),
        ];
        for t in topologies {
            for r in [0, t.num_routers() - 1] {
                let router = RouterId::from_index(r);
                let agent = QAdaptiveAgent::new(&t, &cfg, router, QAdaptiveParams::default(), 1);
                assert_eq!(agent.table.columns(), t.fabric_ports(router));
                assert_eq!(
                    agent.table.rows(),
                    t.num_domains() * t.max_nodes_per_router()
                );
                assert_eq!(agent.col_offset, t.host_ports(router));
            }
        }
    }
}
