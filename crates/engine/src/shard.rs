//! One conservative-parallel shard: the routers, NICs and agents of a
//! contiguous range of locality domains (Dragonfly groups, fat-tree
//! pods, HyperX rows), with their own event queue, packet arena and NIC
//! backlog.
//!
//! A shard is the unit of parallelism. Within a window it runs completely
//! lock-free on its own [`EventQueue`]; anything addressed to a router it
//! does not own — a packet crossing a cross-domain link, a returning
//! credit, RL feedback — is appended to a per-destination outbox and
//! posted to the [`crate::sync::MailGrid`] at the end of the window.
//! Packets leave the sender's [`PacketArena`] **by value** and are
//! re-allocated on arrival, so [`PacketRef`] handles never cross a shard
//! boundary.
//!
//! The event handlers in this module are the former single-engine loop of
//! `engine.rs`, reworked to index shard-local state and to route the three
//! upstream/downstream interactions that can cross a shard boundary.

use crate::arena::{PacketArena, PacketRef};
use crate::checkpoint::{
    owner_shard, retry_owner, ArenaCheckpoint, BacklogCheckpoint, ShardCheckpoint,
};
use crate::config::EngineConfig;
use crate::event::{Event, EventKind, EventQueue, Scheduler};
use crate::fault::{CompiledFault, FaultOp};
use crate::nic::{Backlog, Nic, Queued};
use crate::observer::ShardObserver;
use crate::packet::Packet;
use crate::router::{RouterState, Waiter};
use crate::routing::{Decision, FeedbackMsg, RouterAgent, RouterCtx, RoutingAlgorithm};
use crate::sync::{Mail, MailGrid, QueuedInjection, ShardPlan};
use crate::time::SimTime;
use crate::workload::{workload_packet_id, NodeProgram, NodeTask, Op, WORKLOAD_ID_BIT};
use dragonfly_topology::ids::{NodeId, Port, RouterId};
use dragonfly_topology::paths::HopKind;
use dragonfly_topology::ports::PortKind;
use dragonfly_topology::topology::Neighbor;
use dragonfly_topology::{AnyTopology, Topology};
use std::collections::{BTreeMap, VecDeque};

/// Per-shard simulation state and event handlers.
pub struct Shard<O: ShardObserver> {
    id: usize,
    topo: AnyTopology,
    cfg: EngineConfig,
    plan: ShardPlan,
    /// Global index of the first router owned by this shard.
    router_base: usize,
    /// Global index of the first node owned by this shard.
    node_base: usize,
    routers: Vec<RouterState>,
    agents: Vec<Box<dyn RouterAgent>>,
    nics: Vec<Nic>,
    /// The messages queued at `nics`, not yet packets (see [`crate::nic`]).
    backlog: Backlog,
    queue: EventQueue,
    arena: PacketArena,
    observer: O,
    now: SimTime,
    /// Messages generated at this shard's NICs.
    pub generated: u64,
    /// Packets injected into the fabric by this shard's NICs.
    pub injected: u64,
    /// Packets delivered to this shard's nodes.
    pub delivered: u64,
    /// Packets dropped by this shard's routers (faults / TTL).
    pub dropped: u64,
    /// Packet instances re-generated by this shard's NICs after a drop
    /// notification (each also counts in `generated`).
    pub retransmits: u64,
    /// The full compiled fault schedule (quantized to lookahead
    /// multiples), shared verbatim by every shard.
    faults: Vec<CompiledFault>,
    /// Index of the next unapplied entry of `faults`.
    fault_cursor: usize,
    /// Retransmit attempts per workload packet id, kept by the shard
    /// owning the source node.
    retry_counts: BTreeMap<u64, u32>,
    /// Injections distributed by the coordinator, FIFO; popped by
    /// `TrafficArrival` marker events.
    pending_injections: VecDeque<QueuedInjection>,
    /// Cross-shard messages produced in the current window, per
    /// destination shard (`outboxes[self.id]` stays empty). Posting one
    /// moves its blocks into the grid, so between windows they own nothing.
    outboxes: Vec<Mail>,
    /// Closed-loop program and task state per owned node (parallel to
    /// `nics`; empty unless a workload was installed). Snapshots store the
    /// task state, not the program.
    tasks: Vec<Option<(NodeProgram, NodeTask)>>,
    /// Whether any task program was installed (gates the per-delivery
    /// `TaskRecv` notification, so open-loop runs are untouched).
    has_tasks: bool,
}

impl<O: ShardObserver> Shard<O> {
    /// Build the shard owning `plan.domains_of(id)`. The topology's
    /// domain contract (contiguous router/node ranges per domain) makes
    /// both id spaces of a shard contiguous runs.
    pub fn new(
        topo: &AnyTopology,
        cfg: &EngineConfig,
        algorithm: &dyn RoutingAlgorithm,
        observer: O,
        seed: u64,
        plan: ShardPlan,
        id: usize,
    ) -> Self {
        let domains = plan.domains_of(id);
        let router_base = topo.router_range_of_domain(domains.start).start;
        let router_end = topo.router_range_of_domain(domains.end - 1).end;
        let router_count = router_end - router_base;
        let node_base = topo.node_range_of_domain(domains.start).start;
        let node_end = topo.node_range_of_domain(domains.end - 1).end;
        let node_count = node_end - node_base;
        let routers: Vec<RouterState> = (0..router_count)
            .map(|local| RouterState::new(topo, RouterId::from_index(router_base + local), cfg))
            .collect();
        let agents: Vec<Box<dyn RouterAgent>> = (0..router_count)
            .map(|local| {
                let r = RouterId::from_index(router_base + local);
                // Same per-router seed derivation for every shard count.
                let router_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(r.index() as u64);
                algorithm.make_agent(topo, cfg, r, router_seed)
            })
            .collect();
        let nics = (0..node_count).map(|_| Nic::new(cfg)).collect();
        let num_shards = plan.num_shards();
        Self {
            id,
            topo: topo.clone(),
            cfg: *cfg,
            plan,
            router_base,
            node_base,
            routers,
            agents,
            nics,
            backlog: Backlog::new(),
            queue: EventQueue::for_config(cfg),
            arena: PacketArena::new(),
            observer,
            now: 0,
            generated: 0,
            injected: 0,
            delivered: 0,
            dropped: 0,
            retransmits: 0,
            faults: Vec::new(),
            fault_cursor: 0,
            retry_counts: BTreeMap::new(),
            pending_injections: VecDeque::new(),
            outboxes: (0..num_shards).map(|_| Mail::default()).collect(),
            tasks: Vec::new(),
            has_tasks: false,
        }
    }

    // ------------------------------------------------------------------
    // Indexing helpers
    // ------------------------------------------------------------------

    #[inline]
    fn rlocal(&self, router: RouterId) -> usize {
        debug_assert_eq!(self.plan.shard_of_router(router), self.id);
        router.index() - self.router_base
    }

    #[inline]
    fn nlocal(&self, node: NodeId) -> usize {
        node.index() - self.node_base
    }

    // ------------------------------------------------------------------
    // Accessors used by the coordinator
    // ------------------------------------------------------------------

    /// This shard's index in the plan.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Shard-local simulation time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed by this shard so far.
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Time of the earliest pending local event **or** unapplied fault
    /// (a fault-only shard must still be granted windows so the fault is
    /// applied and injection can resume after a restore).
    pub fn next_local_time(&self) -> Option<SimTime> {
        let ev = self.queue.peek_time();
        match self.faults.get(self.fault_cursor) {
            Some(f) => Some(ev.map_or(f.at_ns, |t| t.min(f.at_ns))),
            None => ev,
        }
    }

    /// Borrow this shard's observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutably borrow this shard's observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consume the shard, returning its observer.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Borrow the agent of a router owned by this shard.
    pub fn agent(&self, router: RouterId) -> &dyn RouterAgent {
        self.agents[self.rlocal(router)].as_ref()
    }

    /// Heap footprint of this shard's learned and in-flight state in
    /// bytes: every agent's Q-table storage, the packet arena and the NIC
    /// backlog pool. Grows with the number of *materialised* table rows and
    /// the peak number of concurrently generated-but-undelivered packets —
    /// not with the number of packets delivered, which is what keeps long
    /// scale runs in bounded memory.
    pub fn memory_bytes(&self) -> usize {
        self.table_bytes()
            + self.arena.memory_bytes()
            + self.backlog.memory_bytes()
            + self.mail_bytes()
    }

    /// Heap held by the mail in this shard's outboxes (none between
    /// windows).
    fn mail_bytes(&self) -> usize {
        self.outboxes.iter().map(Mail::memory_bytes).sum()
    }

    fn table_bytes(&self) -> usize {
        self.agents.iter().map(|a| a.memory_bytes()).sum()
    }

    /// Add this shard's share to [`crate::engine::Engine::memory_breakdown`].
    pub fn add_memory(&self, heap: &mut crate::engine::MemoryBreakdown) {
        use std::mem::size_of;
        heap.tables += self.table_bytes();
        heap.arena += self.arena.memory_bytes();
        heap.backlog += self.backlog.memory_bytes();
        heap.mailboxes += self.mail_bytes();
        heap.event_queues += self.queue.memory_bytes();
        heap.router_state += self.routers.capacity() * size_of::<RouterState>()
            + self
                .routers
                .iter()
                .map(RouterState::memory_bytes)
                .sum::<usize>();
        heap.nic_state += self.nics.capacity() * size_of::<Nic>();
        heap.programs += self.tasks.capacity() * size_of::<Option<(NodeProgram, NodeTask)>>()
            + self
                .tasks
                .iter()
                .flatten()
                .map(|(program, _)| program.memory_bytes())
                .sum::<usize>();
        heap.observers += self.observer.memory_bytes();
    }

    /// Generated packets this shard holds: in the arena (router buffers
    /// and intra-shard link traversals) or queued at its NICs.
    pub fn resident(&self) -> usize {
        self.arena.live_count() + self.backlog.len()
    }

    /// Packets buffered in this shard's router fabric.
    pub fn fabric_occupancy(&self) -> usize {
        self.routers.iter().map(|r| r.buffered_packets()).sum()
    }

    /// Packets waiting in this shard's NIC backlogs.
    pub fn nic_backlog(&self) -> usize {
        self.backlog.len()
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore
    // ------------------------------------------------------------------

    /// The canonical snapshot of `shards`, every shard of one engine in
    /// ascending order, cut at the window boundary `now`: one canonical walk
    /// ([`crate::checkpoint`]) over the fabric packets, the backlog records
    /// copied in node order. Each list is allocated once, at its final
    /// length.
    pub(crate) fn canonical_checkpoint(shards: &[Self], now: SimTime) -> ShardCheckpoint {
        let sum = |count: fn(&Self) -> usize| shards.iter().map(count).sum::<usize>();
        let first = &shards[0];
        let mut ck = ShardCheckpoint {
            now,
            faults: first.faults.clone(),
            fault_cursor: first.fault_cursor,
            has_tasks: first.has_tasks,
            arena: ArenaCheckpoint::with_capacity(sum(|s| s.arena.live_count())),
            backlog: BacklogCheckpoint::with_capacity(sum(|s| s.backlog.len())),
            ..ShardCheckpoint::default()
        };
        ck.routers.reserve_exact(sum(|s| s.routers.len()));
        ck.agents.reserve_exact(sum(|s| s.agents.len()));
        ck.nics.reserve_exact(sum(|s| s.nics.len()));
        ck.queue.events.reserve_exact(sum(|s| s.queue.len()));
        let pending = sum(|s| s.pending_injections.len());
        ck.pending_injections.reserve_exact(pending);
        ck.tasks.reserve_exact(sum(|s| s.tasks.len()));
        // Walk phase 1, router buffers; the rest of each shard's state, the
        // backlog in node order among it, rides along.
        for s in shards {
            debug_assert!(s.outboxes.iter().all(Mail::is_empty), "mail in an outbox");
            debug_assert_eq!(s.fault_cursor, first.fault_cursor, "fault cursors diverged");
            for router in &s.routers {
                let mut state = router.clone();
                state.map_packet_refs(&mut |r| s.arena.get(r).push_to(&mut ck.arena));
                ck.routers.push(state);
            }
            ck.agents.extend(s.agents.iter().map(|a| a.save_state()));
            for nic in &s.nics {
                s.backlog.iter(nic).for_each(|msg| ck.backlog.push(msg));
                ck.nics.push(nic.to_wire());
            }
            (ck.generated, ck.injected) = (ck.generated + s.generated, ck.injected + s.injected);
            (ck.delivered, ck.dropped) = (ck.delivered + s.delivered, ck.dropped + s.dropped);
            ck.retransmits += s.retransmits;
            ck.queue.popped += s.queue.processed();
            ck.queue.events.extend(s.queue.events());
            // Each shard retries the ids of its own source nodes, ascending.
            ck.retry_counts.extend(&s.retry_counts);
            ck.pending_injections.extend(&s.pending_injections);
            let counters = s
                .tasks
                .iter()
                .map(|t| t.as_ref().map(|(_, task)| task.clone()));
            ck.tasks.extend(counters);
        }
        // Walk phase 2, `RouterArrive` events. Restore regenerates the
        // `TrafficArrival` markers from the pending injections. Entity-embedding
        // keys make cross-shard `(time, key)` ties impossible, so the order is
        // total and re-sequencing by position reproduces the single-shard
        // tie-break.
        let events = &mut ck.queue.events;
        events.retain(|e| e.kind != EventKind::TrafficArrival);
        events.sort_unstable_by_key(Event::order);
        for (seq, ev) in events.iter_mut().enumerate() {
            ev.seq = seq as u64;
            let owner = owner_shard(&ev.kind, &first.plan, &first.topo);
            if let (EventKind::RouterArrive { packet, .. }, Some(owner)) = (&mut ev.kind, owner) {
                *packet = shards[owner].arena.get(*packet).push_to(&mut ck.arena);
            }
        }
        ck.queue.next_seq = events.len() as u64;
        // The coordinator hands out injection ids in global order.
        (ck.pending_injections.make_contiguous()).sort_unstable_by_key(|q| q.id);
        ck
    }

    /// Write this shard's share of the canonical snapshot `ck` into this
    /// freshly built shard, reading `ck` in place. The shard must have been
    /// constructed from the same `(topology, config, algorithm, seed, plan)`
    /// tuple, workload and fault schedule — everything the checkpoint does
    /// not store is reconstructed by [`Shard::new`], a task keeps the
    /// program it was installed with and takes the saved counters, the
    /// installed schedule stays, and the topology liveness mask is
    /// re-derived by replaying its applied prefix.
    ///
    /// The share is the shard's router and node ranges, the events and
    /// pending injections it owns and its retry entries. The global counters
    /// and the pop counter go whole to shard 0 (only their sums are
    /// observable), and every shard's queue continues from the canonical
    /// `next_seq`, so events pushed after the restore sequence after every
    /// restored one. The canonical walk ([`crate::checkpoint`]) runs over
    /// the share, reading slots where the writer put them: each router
    /// buffer's packet, then each owned `RouterArrive` event's, takes the
    /// next arena slot of this shard ([`Packet::from_columns`]), and each
    /// NIC's records of the backlog go back into this shard's backlog.
    ///
    /// # Panics
    ///
    /// If a packet is not one this engine can hold, or the NIC counts and
    /// the backlog disagree ([`crate::Engine::check_restorable`] refuses
    /// both first, and a schedule other than the installed one).
    pub fn restore(&mut self, ck: &ShardCheckpoint) {
        self.now = ck.now;
        if self.id == 0 {
            (self.generated, self.injected, self.delivered) =
                (ck.generated, ck.injected, ck.delivered);
            (self.dropped, self.retransmits) = (ck.dropped, ck.retransmits);
        }
        let routers = self.router_base..self.router_base + self.routers.len();
        let (topo, cfg, columns) = (&self.topo, &self.cfg, &ck.arena);
        let arena = &mut self.arena;
        *arena = PacketArena::new();
        let mut fabric = |pref: PacketRef| {
            arena.alloc(
                Packet::from_columns(columns, pref.index(), topo, cfg)
                    .unwrap_or_else(|e| panic!("arena: {e}")),
            )
        };
        for (router, state) in self.routers.iter_mut().zip(&ck.routers[routers.clone()]) {
            router.clone_from(state);
            router.map_packet_refs(&mut fabric);
        }
        for (agent, state) in self.agents.iter_mut().zip(&ck.agents[routers]) {
            agent.load_state(state);
        }
        self.backlog = Backlog::new();
        let mut record = ck.nics[..self.node_base].iter().map(|n| n.queued).sum();
        let wires = &ck.nics[self.node_base..self.node_base + self.nics.len()];
        for (nic, wire) in self.nics.iter_mut().zip(wires) {
            *nic = Nic::from_wire(wire);
            for i in record..record + wire.queued {
                self.backlog.push_back(nic, ck.backlog.get(i));
            }
            record += wire.queued;
        }
        // A fresh engine may already hold bootstrap events (workload start
        // markers); the checkpointed queue replaces them wholesale.
        let (id, plan) = (self.id, &self.plan);
        let popped = if id == 0 { ck.queue.popped } else { 0 };
        self.queue
            .restore_mapped(&ck.queue, ck.now, popped, |kind| {
                (owner_shard(&kind, plan, topo) == Some(id)).then(|| match kind {
                    EventKind::RouterArrive {
                        router,
                        port,
                        vc,
                        packet,
                    } => EventKind::RouterArrive {
                        router,
                        port,
                        vc,
                        packet: fabric(packet),
                    },
                    kind => kind,
                })
            });
        debug_assert!(
            self.faults == ck.faults,
            "restore keeps the installed faults"
        );
        self.fault_cursor = ck.fault_cursor;
        // Replay the liveness flips of every already-applied fault entry;
        // the router-state side effects (quarantine, kill/revive) are
        // already baked into the checkpointed router and arena state.
        for fault in &self.faults[..self.fault_cursor] {
            for op in &fault.ops {
                let live = self.topo.liveness_mut();
                match *op {
                    FaultOp::PortDown { router, port } => live.set_port_down(router, port),
                    FaultOp::PortUp { router, port } => live.set_port_up(router, port),
                    FaultOp::RouterDown { router } => live.set_router_down(router),
                    FaultOp::RouterUp { router } => live.set_router_up(router),
                }
            }
        }
        let topo = &self.topo;
        self.retry_counts = (ck.retry_counts.iter())
            .filter(|&(&id, _)| retry_owner(id, &self.plan, topo) == self.id)
            .map(|(&id, &count)| (id, count))
            .collect();
        self.pending_injections = (ck.pending_injections.iter())
            .filter(|inj| self.plan.shard_of_router(topo.router_of_node(inj.src)) == self.id)
            .copied()
            .collect();
        // The canonical checkpoint form strips `TrafficArrival` markers
        // (they carry no payload — the injection FIFO is the state).
        // Regenerate one marker per pending injection, in FIFO (= id)
        // order, exactly as `accept_injection` scheduled them originally.
        // Every pending injection fires after the cut, so `max(now)` is a
        // no-op and the marker times match the uninterrupted run's.
        for inj in &self.pending_injections {
            self.queue
                .push(inj.time.max(ck.now), EventKind::TrafficArrival);
        }
        for (n, task) in self.tasks.iter_mut().enumerate() {
            if let (Some((_, task)), Some(Some(saved))) = (task, ck.tasks.get(self.node_base + n)) {
                task.clone_from(saved);
            }
        }
    }

    /// Whether `ck` carries the fault schedule installed here, with its
    /// cursor inside it; restore keeps the installed schedule. The error
    /// names the first differing entry or the cursor.
    pub(crate) fn check_faults(&self, ck: &ShardCheckpoint) -> Result<(), String> {
        let (theirs, ours) = (&ck.faults, &self.faults);
        match (0..theirs.len().max(ours.len())).find(|&i| theirs.get(i) != ours.get(i)) {
            Some(i) => Err(format!(
                "faults[{i}] = {:?}, this engine installed {:?}",
                theirs.get(i),
                ours.get(i)
            )),
            None if ck.fault_cursor > ours.len() => Err(format!(
                "fault_cursor = {}, past the {} fault entries",
                ck.fault_cursor,
                ours.len()
            )),
            None => Ok(()),
        }
    }

    /// Whether the tasks of `ck` fit this shard's nodes: a task section
    /// exactly when a workload is installed, one entry per node, and each
    /// saved task one that fits the program compiled for its node
    /// ([`NodeTask::check_fits`]). The error names the node and the field.
    pub(crate) fn check_tasks(&self, ck: &ShardCheckpoint) -> Result<(), String> {
        let nodes = self.topo.num_nodes();
        let want = if self.has_tasks { nodes } else { 0 };
        if (ck.has_tasks, ck.tasks.len()) != (self.has_tasks, want) {
            return Err(format!(
                "has_tasks = {} with {} tasks, this engine runs {want} task programs",
                ck.has_tasks,
                ck.tasks.len()
            ));
        }
        for (n, task) in self.tasks.iter().enumerate() {
            let node = self.node_base + n;
            match (task, &ck.tasks[node]) {
                (Some((program, _)), Some(saved)) => saved.check_fits(program.len(), nodes),
                (None, None) => Ok(()),
                (_, saved) => Err(format!(
                    "the snapshot has {} task, this engine {}",
                    if saved.is_some() { "a" } else { "no" },
                    if task.is_some() { "one" } else { "none" }
                )),
            }
            .map_err(|e| format!("task of node {node}: {e}"))?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Window plumbing
    // ------------------------------------------------------------------

    /// Accept one coordinator-distributed injection (called in global
    /// injector order).
    pub fn accept_injection(&mut self, injection: QueuedInjection) {
        debug_assert!(
            self.plan
                .shard_of_router(self.topo.router_of_node(injection.src))
                == self.id,
            "injection routed to the wrong shard"
        );
        self.queue
            .push(injection.time.max(self.now), EventKind::TrafficArrival);
        self.pending_injections.push_back(injection);
    }

    /// Take and deliver the mail the grid holds for this shard from
    /// windows up to `through`. The mail's blocks are freed as they are
    /// read, so no inbox outlives the drain.
    pub fn deliver_from_grid(&mut self, grid: &MailGrid, through: u64) {
        grid.take(self.id, through)
            .deliver(&mut self.arena, &mut self.queue);
    }

    /// Move the outboxes of window `window` into the shared mail grid.
    pub fn flush_outboxes(&mut self, grid: &MailGrid, window: u64) {
        for (dst, outbox) in self.outboxes.iter_mut().enumerate() {
            grid.post(self.id, dst, window, outbox);
        }
    }

    /// Install the compiled, already-quantized fault schedule (every
    /// shard receives the full schedule; called before the run starts).
    pub fn install_faults(&mut self, faults: Vec<CompiledFault>) {
        debug_assert_eq!(self.now, 0, "faults must be installed before the run");
        debug_assert!(faults.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        self.faults = faults;
        self.fault_cursor = 0;
    }

    /// Run every pending event with `time <= end_incl`, returning the
    /// number processed.
    ///
    /// Fault entries interleave with event dispatch here: an entry at
    /// `t_q` is applied immediately before the first event with
    /// `time >= t_q` (faults win ties). Because the event total order is
    /// identical across shard counts and execution modes, so is the fault
    /// application point.
    pub fn run_window(&mut self, end_incl: SimTime) -> u64 {
        let mut processed = 0;
        loop {
            while self.fault_due(end_incl) {
                self.apply_next_fault();
            }
            let Some(event) = self.queue.pop_before(end_incl) else {
                break;
            };
            debug_assert!(event.time >= self.now, "time must not go backwards");
            self.now = event.time;
            self.dispatch(event.kind);
            processed += 1;
        }
        processed
    }

    /// Whether the next unapplied fault must fire before the next event
    /// of this window.
    fn fault_due(&self, end_incl: SimTime) -> bool {
        match self.faults.get(self.fault_cursor) {
            Some(f) => f.at_ns <= end_incl && self.queue.peek_time().is_none_or(|t| f.at_ns <= t),
            None => false,
        }
    }

    /// Apply the next fault entry: update the shard-local liveness mask
    /// for **every** op (liveness queries are always local) and clean up
    /// router state only for routers this shard owns.
    fn apply_next_fault(&mut self) {
        let fault = self.faults[self.fault_cursor].clone();
        self.fault_cursor += 1;
        debug_assert!(fault.at_ns >= self.now, "fault time must not go backwards");
        self.now = fault.at_ns;
        for op in &fault.ops {
            match *op {
                FaultOp::PortDown { router, port } => {
                    self.topo.liveness_mut().set_port_down(router, port);
                    if self.plan.shard_of_router(router) == self.id {
                        self.quarantine_port(router, port);
                    }
                }
                FaultOp::PortUp { router, port } => {
                    self.topo.liveness_mut().set_port_up(router, port);
                }
                FaultOp::RouterDown { router } => {
                    self.topo.liveness_mut().set_router_down(router);
                    if self.plan.shard_of_router(router) == self.id {
                        self.kill_router(router);
                    }
                }
                FaultOp::RouterUp { router } => {
                    self.topo.liveness_mut().set_router_up(router);
                    if self.plan.shard_of_router(router) == self.id {
                        self.revive_router(router);
                    }
                }
            }
        }
    }

    /// A port of an owned router went down: drop the packets stranded in
    /// its output queues (they have not consumed downstream credits yet,
    /// so no restitution is due) and wake every input VC blocked on it so
    /// the head-of-line packets re-decide around the dead port.
    fn quarantine_port(&mut self, router: RouterId, port: Port) {
        let r = self.rlocal(router);
        for vc in 0..self.cfg.num_vcs as u8 {
            while let Some(pref) = self.routers[r].pop_output(port, vc) {
                self.drop_packet(pref, None);
            }
        }
        while let Some(w) = self.routers[r].pop_waiter(port) {
            if let Some(pref) = self.routers[r].input_head(w.in_port, w.vc) {
                self.arena.get_mut(pref).set_pending_decision(None);
            }
            self.queue.push(
                self.now,
                EventKind::SwitchAttempt {
                    router,
                    port: w.in_port,
                    vc: w.vc,
                },
            );
        }
    }

    /// An owned router went down: drop every buffered packet (input slots
    /// refund their upstream credit; output slots hold no downstream
    /// credit) and factory-reset the router state. Quantization guarantees
    /// a matching restore is at least one lookahead later, so everything
    /// in flight towards the dead router lands — and is dropped/ignored —
    /// before it comes back with fresh buffers and full credits.
    fn kill_router(&mut self, router: RouterId) {
        let r = self.rlocal(router);
        let num_ports = self.routers[r].num_ports();
        for port in 0..num_ports {
            let port = Port(port as u16);
            for vc in 0..self.cfg.num_vcs as u8 {
                while let Some(pref) = self.routers[r].pop_input(port, vc) {
                    self.arena.get_mut(pref).set_pending_decision(None);
                    self.drop_packet(pref, Some((router, port, vc)));
                }
                while let Some(pref) = self.routers[r].pop_output(port, vc) {
                    self.drop_packet(pref, None);
                }
            }
        }
        let fresh = RouterState::new(&self.topo, router, &self.cfg);
        self.routers[r] = fresh;
    }

    /// An owned router came back: kick the NICs of its attached nodes so
    /// backlog accumulated while the router was dead starts draining.
    fn revive_router(&mut self, router: RouterId) {
        for local in 0..self.nics.len() {
            let node = NodeId::from_index(self.node_base + local);
            if self.topo.router_of_node(node) == router {
                self.queue.push(self.now, EventKind::NicTryInject { node });
            }
        }
    }

    /// Schedule a credit, RL feedback or drop notice on a router that may
    /// live in another shard.
    #[inline]
    fn send_to_router(&mut self, dst: RouterId, time: SimTime, kind: EventKind) {
        let shard = self.plan.shard_of_router(dst);
        if shard == self.id {
            self.queue.push(time, kind);
        } else {
            debug_assert!(
                time >= self.now + self.plan.lookahead(),
                "cross-shard message inside the lookahead window"
            );
            self.outboxes[shard].push_event(time, kind);
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch (the former engine loop)
    // ------------------------------------------------------------------

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::TrafficArrival => self.handle_traffic_arrival(),
            EventKind::NicTryInject { node } => {
                let n = self.nlocal(node);
                self.nics[n].retry_pending = false;
                self.try_nic_inject(node);
            }
            EventKind::NicCredit { node } => {
                let nic = &mut self.nics[node.index() - self.node_base];
                nic.credits += 1;
                debug_assert!(nic.credits as usize <= self.cfg.vc_buffer_packets);
                self.try_nic_inject(node);
            }
            EventKind::RouterArrive {
                router,
                port,
                vc,
                packet,
            } => self.handle_router_arrive(router, port, vc, packet),
            EventKind::SwitchAttempt { router, port, vc } => {
                self.handle_switch_attempt(router, port, vc)
            }
            EventKind::OutputAttempt { router, port } => self.handle_output_attempt(router, port),
            EventKind::CreditArrive { router, port, vc } => {
                // A dead router's state is factory-fresh (full credits); a
                // late credit for a pre-fault packet must not overflow it.
                if self.topo.router_up(router) {
                    let r = self.rlocal(router);
                    self.routers[r].return_credit(port, vc, &self.cfg);
                    self.schedule_output_attempt(router, port, self.now);
                }
            }
            EventKind::RlFeedback { router, msg } => {
                let r = self.rlocal(router);
                self.agents[r].feedback(&msg);
            }
            EventKind::TaskWake { node } => {
                let (n, now) = (self.nlocal(node), self.now);
                if let Some(task) = self.task_mut(n) {
                    debug_assert_eq!(task.resume_at.unwrap_or(now), now);
                    task.resume_at = None;
                }
                self.advance_task(node);
            }
            EventKind::TaskRecv { node, src } => {
                let n = self.nlocal(node);
                if let Some(task) = self.task_mut(n) {
                    task.record_delivery(src);
                }
                self.advance_task(node);
            }
            EventKind::DropNotice { node, dst, id } => self.handle_drop_notice(node, dst, id),
            EventKind::NicResend { node, dst, id } => self.handle_nic_resend(node, dst, id),
        }
    }

    // ------------------------------------------------------------------
    // NIC-level retransmission (closed-loop workloads under faults)
    // ------------------------------------------------------------------

    /// The fabric dropped a workload packet from `node`: retransmit after
    /// a deterministic exponential backoff, up to `cfg.max_retries`
    /// attempts, then give up (the destination will never see it).
    fn handle_drop_notice(&mut self, node: NodeId, dst: NodeId, id: u64) {
        let retries = {
            let e = self.retry_counts.entry(id).or_insert(0);
            *e += 1;
            *e
        };
        if retries <= self.cfg.max_retries {
            let backoff = self.cfg.retransmit_backoff_ns << (retries - 1);
            self.queue
                .push(self.now + backoff, EventKind::NicResend { node, dst, id });
        } else {
            self.retry_counts.remove(&id);
            self.observer.message_gave_up(node, dst, self.now);
        }
    }

    /// Re-generate a dropped workload packet at its source NIC: a fresh
    /// packet instance under the same workload id, through the normal
    /// generation path (so conservation counts the new instance).
    fn handle_nic_resend(&mut self, node: NodeId, dst: NodeId, id: u64) {
        self.retransmits += 1;
        self.generate(node, dst, id, true);
    }

    /// Drop a packet: refund the input-buffer credit it held (if any),
    /// notify the source NIC's shard if it was a workload message, and
    /// recycle the arena slot. Dropped packets never produce RL feedback.
    fn drop_packet(&mut self, pref: PacketRef, refund: Option<(RouterId, Port, u8)>) {
        if let Some((router, port, vc)) = refund {
            self.send_credit_upstream(router, port, vc);
        }
        self.observer.packet_dropped(self.arena.get(pref), self.now);
        self.dropped += 1;
        let (src, dst, id) = {
            let p = self.arena.get(pref);
            (p.src, p.dst, p.id)
        };
        if self.has_tasks && id & WORKLOAD_ID_BIT != 0 {
            // The source's shard decides whether to retransmit. Fire one
            // lookahead out so the notice is legal cross-shard mail; the
            // delay models the timeout a real NIC needs to detect loss.
            let src_router = self.topo.router_of_node(src);
            let at = self.now + self.plan.lookahead().max(1);
            self.send_to_router(src_router, at, EventKind::DropNotice { node: src, dst, id });
        }
        self.arena.free(pref);
    }

    // ------------------------------------------------------------------
    // Closed-loop task programs
    // ------------------------------------------------------------------

    /// Install the task program of one owned node and schedule its start
    /// at `t = 0` (called by `Engine::install_workload` before the run).
    pub fn install_task(&mut self, node: NodeId, ops: NodeProgram) {
        debug_assert_eq!(
            self.plan.shard_of_router(self.topo.router_of_node(node)),
            self.id,
            "task installed on the wrong shard"
        );
        if self.tasks.is_empty() {
            self.tasks = (0..self.nics.len()).map(|_| None).collect();
        }
        self.has_tasks = true;
        let n = self.nlocal(node);
        self.tasks[n] = Some((ops, NodeTask::default()));
        self.queue.push(0, EventKind::TaskWake { node });
    }

    /// Number of owned task programs that ran to completion.
    pub fn tasks_finished(&self) -> u64 {
        self.tasks
            .iter()
            .filter(|t| t.as_ref().is_some_and(|(_, t)| t.done))
            .count() as u64
    }

    /// The task state of owned node `n`, if it runs a program.
    fn task_mut(&mut self, n: usize) -> Option<&mut NodeTask> {
        self.tasks[n].as_mut().map(|(_, task)| task)
    }

    /// Execute ops of `node`'s program until it blocks (`Recv` short of
    /// messages), yields (`Compute` in flight) or finishes. Every call
    /// site is a shard-local event with a content-derived key, so the
    /// execution order — and with it every send this triggers — is
    /// identical across shard counts and execution modes.
    fn advance_task(&mut self, node: NodeId) {
        let n = self.nlocal(node);
        loop {
            let op = {
                let Some((program, task)) = self.tasks[n].as_mut() else {
                    return;
                };
                if task.done || task.resume_at.is_some() {
                    // A `TaskRecv` landing mid-compute must not run past
                    // the pending wake.
                    return;
                }
                let op = program.op_at(task.pc);
                task.done = op.is_none();
                op
            };
            let Some(op) = op else {
                self.observer.task_rank_finished(node, self.now);
                return;
            };
            match op {
                Op::Compute { delay_ns } => {
                    let at = self.now + delay_ns;
                    {
                        let task = self.task_mut(n).expect("checked above");
                        task.pc += 1;
                        task.resume_at = Some(at);
                    }
                    self.queue.push(at, EventKind::TaskWake { node });
                    return;
                }
                Op::Send { dst, messages } => {
                    for _ in 0..messages {
                        self.workload_send(node, dst);
                    }
                    self.task_mut(n).expect("checked above").pc += 1;
                }
                Op::Recv {
                    from,
                    messages,
                    barrier,
                } => {
                    let now = self.now;
                    let (consumed, waited) = {
                        let task = self.task_mut(n).expect("checked above");
                        if task.try_consume(from, messages) {
                            task.pc += 1;
                            (true, task.blocked_since.take().map(|since| now - since))
                        } else {
                            task.blocked_since.get_or_insert(now);
                            (false, None)
                        }
                    };
                    if let Some(waited) = waited {
                        self.observer.task_blocked_wait(node, waited, barrier);
                    }
                    if !consumed {
                        return;
                    }
                }
                Op::Phase { index } => {
                    self.task_mut(n).expect("checked above").pc += 1;
                    self.observer.task_phase_completed(node, index, self.now);
                }
            }
        }
    }

    /// Post one workload packet at `src`'s NIC — the same generation path
    /// as injector traffic, but with a deterministic id from the workload
    /// namespace (so id assignment cannot depend on execution order).
    fn workload_send(&mut self, src: NodeId, dst: NodeId) {
        debug_assert_ne!(src, dst, "lowerings never emit self-sends");
        let n = self.nlocal(src);
        let seq = {
            let task = self.task_mut(n).expect("sending node has a task");
            let seq = task.next_send_seq;
            task.next_send_seq += 1;
            seq
        };
        self.generate(src, dst, workload_packet_id(src, seq), false);
    }

    // ------------------------------------------------------------------
    // Traffic generation and injection
    // ------------------------------------------------------------------

    fn handle_traffic_arrival(&mut self) {
        let inj = match self.pending_injections.pop_front() {
            Some(i) => i,
            None => return,
        };
        debug_assert!(inj.time <= self.now, "marker fired before its injection");
        self.generate(inj.src, inj.dst, inj.id, false);
    }

    /// Queue a message generated now at `src`'s NIC (a retransmission of a
    /// dropped one, or a new one) and try to inject. The observer sees the
    /// packet the NIC will build; the backlog keeps only the record.
    fn generate(&mut self, src: NodeId, dst: NodeId, id: u64, retransmit: bool) {
        let msg = Queued {
            id,
            dst,
            created_ns: self.now,
        };
        let packet = self.packet_of(src, msg);
        if retransmit {
            self.observer.packet_retransmitted(&packet, self.now);
        } else {
            self.observer.packet_generated(&packet, self.now);
        }
        self.generated += 1;
        let n = self.nlocal(src);
        self.nics[n].generated += 1;
        self.backlog.push_back(&mut self.nics[n], msg);
        self.try_nic_inject(src);
    }

    fn packet_of(&self, src: NodeId, msg: Queued) -> Packet {
        Packet::new(&self.topo, msg.id, src, msg.dst, msg.created_ns)
    }

    fn try_nic_inject(&mut self, node: NodeId) {
        if !self.topo.router_up(self.topo.router_of_node(node)) {
            // The attached router is dead: backlog accumulates in the
            // source queue; the RouterUp kick resumes injection.
            return;
        }
        let ser = self.cfg.serialization_ns();
        let host_lat = self.cfg.host_latency_ns;
        let nic = &mut self.nics[node.index() - self.node_base];
        if nic.backlog() == 0 || nic.credits == 0 {
            // A NicCredit event (or new traffic) will retry later.
            return;
        }
        if nic.link_free_at > self.now {
            if !nic.retry_pending {
                nic.retry_pending = true;
                let at = nic.link_free_at;
                self.queue.push(at, EventKind::NicTryInject { node });
            }
            return;
        }
        let msg = self.backlog.pop_front(nic).expect("checked non-empty");
        nic.credits -= 1;
        nic.injected += 1;
        nic.link_free_at = self.now + ser;
        let more = nic.backlog() > 0 && nic.credits > 0 && !nic.retry_pending;
        if more {
            nic.retry_pending = true;
            let at = nic.link_free_at;
            self.queue.push(at, EventKind::NicTryInject { node });
        }
        // The message becomes a packet here.
        let mut packet = self.packet_of(node, msg);
        packet.injected_ns = self.now;
        packet.last_decision_ns = self.now;
        let pref = self.arena.alloc(packet);
        self.observer
            .packet_injected(self.arena.get(pref), self.now);
        self.injected += 1;
        let router = self.topo.router_of_node(node);
        let port = self.topo.ejection_port(node);
        self.queue.push(
            self.now + ser + host_lat,
            EventKind::RouterArrive {
                router,
                port,
                vc: 0,
                packet: pref,
            },
        );
    }

    // ------------------------------------------------------------------
    // Router pipeline
    // ------------------------------------------------------------------

    fn handle_router_arrive(&mut self, router: RouterId, port: Port, vc: u8, packet: PacketRef) {
        if !self.topo.router_up(router) {
            // Arrivals at a dead router are dropped, refunding the credit
            // the input slot would have held so the upstream re-balances.
            // (Packets already in flight on a killed *link* still land:
            // only the dead-router case loses them.)
            self.drop_packet(packet, Some((router, port, vc)));
            return;
        }
        let state = &mut self.routers[router.index() - self.router_base];
        if state.push_input(port, vc, packet, &self.cfg) {
            self.queue.push(
                self.now + self.cfg.router_latency_ns,
                EventKind::SwitchAttempt { router, port, vc },
            );
        }
    }

    fn handle_switch_attempt(&mut self, router: RouterId, port: Port, vc: u8) {
        if !self.topo.router_up(router) {
            // Stale wakeup for a router that died (its buffers were
            // drained at kill time, so there is nothing to switch).
            return;
        }
        let r = self.rlocal(router);
        // Remove the head-of-line handle; the packet itself stays in the
        // arena, so the agent can mutate it while the router state stays
        // immutably borrowable.
        let pref = match self.routers[r].pop_input(port, vc) {
            Some(p) => p,
            None => return,
        };

        // Hop-count TTL: a packet that cannot make progress (e.g. its
        // destination is unreachable behind dead links) is dropped rather
        // than circling the fabric forever.
        let expired = {
            let p = self.arena.get(pref);
            p.dst_router != router && p.hops >= self.cfg.ttl_hops
        };
        if expired {
            self.arena.get_mut(pref).set_pending_decision(None);
            self.drop_packet(pref, Some((router, port, vc)));
            if self.routers[r].input_head(port, vc).is_some() {
                self.queue
                    .push(self.now, EventKind::SwitchAttempt { router, port, vc });
            }
            return;
        }

        let decision = {
            let arena = &mut self.arena;
            let packet = arena.get_mut(pref);
            // A decision made before a fault may point at a port that has
            // since died; re-decide instead of honouring it.
            let pending = packet
                .pending_decision()
                .filter(|&(p, _)| self.topo.port_up(router, p));
            match pending {
                Some((p, v)) => Decision { port: p, vc: v },
                None => {
                    packet.set_pending_decision(None);
                    if packet.dst_router == router {
                        Decision {
                            port: self.topo.ejection_port(packet.dst),
                            vc: packet.vc,
                        }
                    } else {
                        let ctx = RouterCtx {
                            router,
                            topology: &self.topo,
                            config: &self.cfg,
                            now: self.now,
                            state: &self.routers[r],
                        };
                        let d = self.agents[r].decide(&ctx, packet);
                        debug_assert_ne!(
                            self.topo.port_kind(router, d.port),
                            PortKind::Host,
                            "agents must not route to host ports (ejection is engine-handled)"
                        );
                        debug_assert!(
                            (d.vc as usize) < self.cfg.num_vcs,
                            "agent selected VC {} but only {} exist",
                            d.vc,
                            self.cfg.num_vcs
                        );
                        d
                    }
                }
            }
        };

        let ejecting = self.topo.port_kind(router, decision.port) == PortKind::Host;
        if !ejecting && !self.topo.port_up(router, decision.port) {
            // Every fabric port the agent could fall back to is dead
            // (total blackout at this router): the packet is undeliverable.
            self.arena.get_mut(pref).set_pending_decision(None);
            self.drop_packet(pref, Some((router, port, vc)));
            if self.routers[r].input_head(port, vc).is_some() {
                self.queue
                    .push(self.now, EventKind::SwitchAttempt { router, port, vc });
            }
            return;
        }

        if !self.routers[r].output_has_space(decision.port, decision.vc, &self.cfg) {
            // Blocked: remember the decision, restore head-of-line position
            // and wait for the output queue to drain.
            self.arena
                .get_mut(pref)
                .set_pending_decision(Some((decision.port, decision.vc)));
            self.routers[r].push_input_front(port, vc, pref);
            self.routers[r].add_waiter(decision.port, Waiter { in_port: port, vc });
            return;
        }

        // --- Committed: the packet leaves the input buffer. ---

        // 1. Return a credit upstream for the freed input slot.
        self.send_credit_upstream(router, port, vc);

        // 2. Deliver RL feedback to the router that forwarded the packet to
        //    us (the per-hop delay is the reward; our own estimate of the
        //    remaining time is the bootstrap value).
        if let Some((up_router, up_port)) = self.arena.get(pref).last_hop() {
            let packet = self.arena.get(pref);
            let reward_ns = (self.now - packet.last_decision_ns) as f64;
            let downstream_estimate_ns = if packet.dst_router == router {
                self.cfg.ejection_ns() as f64
            } else {
                let ctx = RouterCtx {
                    router,
                    topology: &self.topo,
                    config: &self.cfg,
                    now: self.now,
                    state: &self.routers[r],
                };
                self.agents[r].estimate_after_decision(&ctx, packet, decision)
            };
            let msg = FeedbackMsg {
                packet_id: packet.id,
                src: packet.src,
                dst: packet.dst,
                dst_router: packet.dst_router,
                dst_group: packet.dst_group(),
                src_slot: packet.src_slot,
                port: up_port,
                reward_ns,
                downstream_estimate_ns,
            };
            let latency = self.input_link_latency(router, port);
            let at = self.now + latency;
            self.send_to_router(
                up_router,
                at,
                EventKind::RlFeedback {
                    router: up_router,
                    msg,
                },
            );
        }

        // 3. Update per-packet bookkeeping and enqueue on the output side.
        {
            let packet = self.arena.get_mut(pref);
            if !ejecting {
                packet.hops += 1;
                packet.set_last_hop(router, decision.port);
                packet.last_decision_ns = self.now;
                packet.vc = decision.vc;
            }
            packet.set_pending_decision(None);
        }
        self.routers[r].push_output(decision.port, decision.vc, pref);
        self.schedule_output_attempt(router, decision.port, self.now);

        // 4. The next packet in this input VC (if any) can now attempt the
        //    switch; it has already been charged the router latency while
        //    waiting behind the head-of-line packet.
        if self.routers[r].input_head(port, vc).is_some() {
            self.queue
                .push(self.now, EventKind::SwitchAttempt { router, port, vc });
        }
    }

    fn handle_output_attempt(&mut self, router: RouterId, port: Port) {
        if !self.topo.router_up(router) {
            // Stale wakeup for a dead router; its factory-reset state has
            // no pending-output flags to clear.
            return;
        }
        let r = self.rlocal(router);
        self.routers[r].set_output_event_pending(port, false);

        if self.routers[r].link_free_at(port) > self.now {
            let at = self.routers[r].link_free_at(port);
            self.schedule_output_attempt(router, port, at);
            return;
        }
        let vc = match self.routers[r].select_output_vc(port) {
            Some(vc) => vc,
            // Nothing sendable: either all queues empty or no credits.
            // A credit arrival or a new enqueue will reschedule us.
            None => return,
        };
        let pref = self.routers[r]
            .pop_output(port, vc)
            .expect("select_output_vc returned a non-empty queue");
        let ser = self.cfg.serialization_ns();
        self.routers[r].set_link_busy_until(port, self.now + ser);

        // A slot was freed in this port's output queues: wake every blocked
        // input VC waiting on it (they re-register if still blocked).
        while let Some(w) = self.routers[r].pop_waiter(port) {
            self.queue.push(
                self.now,
                EventKind::SwitchAttempt {
                    router,
                    port: w.in_port,
                    vc: w.vc,
                },
            );
        }

        match self.topo.port_kind(router, port) {
            PortKind::Host => {
                // Ejection: deliver to the attached node and recycle the
                // packet's arena slot.
                let delivery = self.now + ser + self.cfg.host_latency_ns;
                debug_assert_eq!(self.topo.ejection_port(self.arena.get(pref).dst), port);
                self.observer.packet_delivered(
                    self.arena.get(pref),
                    self.cfg.packet_bytes,
                    delivery,
                );
                self.delivered += 1;
                if self.has_tasks {
                    // Closed-loop notification: the destination node is
                    // always attached to this shard (host ports never
                    // cross shards), so the wakeup is a local event at
                    // the delivery time — no lookahead interaction.
                    let (p_src, p_dst, p_id) = {
                        let p = self.arena.get(pref);
                        (p.src, p.dst, p.id)
                    };
                    if p_id & WORKLOAD_ID_BIT != 0 {
                        self.queue.push(
                            delivery,
                            EventKind::TaskRecv {
                                node: p_dst,
                                src: p_src,
                            },
                        );
                    }
                }
                self.arena.free(pref);
            }
            PortKind::Local | PortKind::Global => {
                self.routers[r].consume_credit(port, vc);
                let (down_router, down_port) = match self.topo.neighbor(router, port) {
                    Neighbor::Router { router, port } => (router, port),
                    Neighbor::Node(_) => unreachable!("fabric port resolved to a node"),
                };
                let latency = self.output_link_latency(router, port);
                let at = self.now + ser + latency;
                let dst_shard = self.plan.shard_of_router(down_router);
                if dst_shard == self.id {
                    self.queue.push(
                        at,
                        EventKind::RouterArrive {
                            router: down_router,
                            port: down_port,
                            vc,
                            packet: pref,
                        },
                    );
                } else {
                    // The packet leaves this shard: extract it from the
                    // local arena and ship it by value. The receiving
                    // shard allocates its own slot (handle translation).
                    debug_assert!(
                        at >= self.now + self.plan.lookahead(),
                        "cross-shard packet inside the lookahead window"
                    );
                    let packet = self.arena.get(pref).clone();
                    self.arena.free(pref);
                    self.outboxes[dst_shard].push_packet(at, down_router, down_port, vc, packet);
                }
            }
        }

        if self.routers[r].output_queue_len(port) > 0 {
            self.schedule_output_attempt(router, port, self.now + ser);
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn schedule_output_attempt(&mut self, router: RouterId, port: Port, at: SimTime) {
        let state = &mut self.routers[router.index() - self.router_base];
        if state.output_event_pending(port) {
            return;
        }
        state.set_output_event_pending(port, true);
        self.queue
            .push(at.max(self.now), EventKind::OutputAttempt { router, port });
    }

    /// Latency of the link feeding input `port` of `router` (used for
    /// credit returns and feedback messages travelling upstream).
    fn input_link_latency(&self, router: RouterId, port: Port) -> SimTime {
        match self.topo.port_kind(router, port) {
            PortKind::Host => self.cfg.host_latency_ns,
            PortKind::Local => self.cfg.link_latency_ns(HopKind::Local),
            PortKind::Global => self.cfg.link_latency_ns(HopKind::Global),
        }
    }

    /// Latency of the link driven by output `port` of `router`.
    fn output_link_latency(&self, router: RouterId, port: Port) -> SimTime {
        match self.topo.port_kind(router, port) {
            PortKind::Host => self.cfg.host_latency_ns,
            PortKind::Local => self.cfg.link_latency_ns(HopKind::Local),
            PortKind::Global => self.cfg.link_latency_ns(HopKind::Global),
        }
    }

    fn send_credit_upstream(&mut self, router: RouterId, port: Port, vc: u8) {
        match self.topo.port_kind(router, port) {
            PortKind::Host => {
                // The packet came from a NIC: give the NIC its credit back.
                let node = match self.topo.neighbor(router, port) {
                    Neighbor::Node(n) => n,
                    Neighbor::Router { .. } => unreachable!("host port resolved to a router"),
                };
                self.queue.push(
                    self.now + self.cfg.host_latency_ns,
                    EventKind::NicCredit { node },
                );
            }
            PortKind::Local | PortKind::Global => {
                let (up_router, up_port) = match self.topo.neighbor(router, port) {
                    Neighbor::Router { router, port } => (router, port),
                    Neighbor::Node(_) => unreachable!("fabric port resolved to a node"),
                };
                let latency = self.input_link_latency(router, port);
                let at = self.now + latency;
                let credit = EventKind::CreditArrive {
                    router: up_router,
                    port: up_port,
                    vc,
                };
                self.send_to_router(up_router, at, credit);
            }
        }
    }
}
