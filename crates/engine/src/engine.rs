//! The simulation coordinator: owns the shards, feeds them traffic and
//! runs the window loop.
//!
//! There is one loop for every shard count. `run_until` / `run_to_drain`
//! run *epochs*; an epoch starts at the earliest pending event and runs
//! one worker per shard over a fixed window grid ([`WindowGate`]), the
//! calling thread being worker 0. A window of shard `s` is always run by
//! worker `s`: it takes the injections due in the window (one cursor,
//! injector order), drains the mail addressed to `s`, runs the shard's
//! events and posts its outbound mail. The epoch ends when every shard is
//! past the cap, or when an idle worker's audit finds nothing to do
//! within the next `AUDIT_HORIZON_WINDOWS` windows; between epochs the
//! world is stopped and all mail is delivered. With `shards = Single`
//! (or `Auto` on one CPU) this is the sequential event loop: one worker,
//! the caller, no threads. See [`crate::sync`] for the grid, the gate and
//! why there is no work stealing, and the crate-level documentation for
//! the determinism contract. The engine is generic over the
//! [`ShardObserver`] so that callers can retrieve their metric collectors
//! by value after the run.

use crate::config::EngineConfig;
use crate::injector::{Injection, TrafficInjector};
use crate::observer::ShardObserver;
use crate::packet::Packet;
use crate::routing::RoutingAlgorithm;
use crate::shard::Shard;
use crate::sync::{pause, MailGrid, QueuedInjection, ShardPlan, WindowGate, NO_EVENT};
use crate::time::SimTime;
use dragonfly_topology::ids::{NodeId, RouterId};
use dragonfly_topology::{AnyTopology, Topology};
use parking_lot::Mutex;

/// How far ahead (in windows) the quiescence audit looks before ending an
/// epoch: traffic gaps shorter than this are ground through as cheap
/// empty windows, longer ones end the epoch so the engine can jump
/// straight to the next event time.
const AUDIT_HORIZON_WINDOWS: u64 = 64;

/// Drain progress of one shard (see [`EngineStats::shards`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardDrain {
    /// Messages generated at this shard's NICs.
    pub generated: u64,
    /// Packets delivered to this shard's nodes.
    pub delivered: u64,
    /// Packets dropped by this shard's routers (faults / TTL).
    pub dropped: u64,
    /// Generated packets this shard holds: queued at its NICs, in its
    /// router buffers or on an intra-shard link.
    pub resident: u64,
    /// Packets travelling *towards* this shard inside cross-shard
    /// mailboxes. Always 0 between runs: a run delivers all its mail
    /// before it returns. Kept because the benchmark's conservation check
    /// reads it.
    pub inbound_mail: u64,
    /// Events processed by this shard.
    pub events: u64,
}

/// Aggregate counters maintained by the engine itself (independent of the
/// observer, so they are always available).
///
/// `shards` reports per-shard drain progress: `sum(resident) +
/// sum(inbound_mail)` always equals [`EngineStats::outstanding`], and
/// between runs every outstanding packet is resident in some shard.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Messages generated at NICs.
    pub generated: u64,
    /// Packets injected into the router fabric.
    pub injected: u64,
    /// Packets delivered to their destination node.
    pub delivered: u64,
    /// Packets dropped by the fabric (dead routers/ports under fault
    /// injection, TTL expiry). Zero on an un-faulted run.
    pub dropped: u64,
    /// Packet instances re-generated by NICs after a drop notification
    /// (each also counts in `generated`).
    pub retransmits: u64,
    /// Events processed so far.
    pub events: u64,
    /// Per-shard drain progress, in shard order (length = shard count).
    pub shards: Vec<ShardDrain>,
}

impl EngineStats {
    /// Packets generated but not yet delivered or dropped (in NIC queues,
    /// in the fabric, or in cross-shard mailboxes). Conservation:
    /// `generated == delivered + dropped + outstanding()` at all times.
    pub fn outstanding(&self) -> u64 {
        self.generated - self.delivered - self.dropped
    }

    /// Packets currently travelling between shards in mailboxes.
    pub fn in_mailboxes(&self) -> u64 {
        self.shards.iter().map(|s| s.inbound_mail).sum()
    }
}

/// Where the engine's heap is, by owner, in bytes at retained capacity
/// (see [`Engine::memory_breakdown`]). A side channel like
/// `memory_bytes`: never part of a report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Every routing agent's Q-table storage.
    pub tables: usize,
    /// The packet arenas.
    pub arena: usize,
    /// The NIC backlog pools: a 24-byte record per generated message that
    /// has not been injected.
    pub backlog: usize,
    /// The calendar queues: bucket tables, the buffers of occupied
    /// buckets, side slabs.
    pub event_queues: usize,
    /// Router input/output buffers, credits and wait lists.
    pub router_state: usize,
    /// The per-node NIC records.
    pub nic_state: usize,
    /// Cross-shard mail wherever it sits: in the grid's mailboxes and in
    /// the shards' outboxes. Zero between runs: every buffer of mail is
    /// freed once it is delivered.
    pub mailboxes: usize,
    /// The largest window of mail one shard has posted to another so far
    /// (what a window in flight costs; not part of `memory_bytes`, and
    /// zero when no packet, credit or feedback ever crossed a shard).
    pub largest_mail_window: usize,
    /// The closed-loop task table: a slot per node, and each node's
    /// compiled program (its straight-line runs and loop bodies).
    pub programs: usize,
    /// What the shards' observers report through
    /// [`ShardObserver::memory_bytes`], summed without merging them.
    pub observers: usize,
}

impl std::fmt::Display for MemoryBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mb = |bytes: usize| bytes as f64 / 1e6;
        write!(
            f,
            "tables {:.2} MB, arena {:.2} MB, NIC backlog {:.2} MB, \
             event queues {:.2} MB, router state {:.2} MB, NIC state {:.2} MB, \
             mailboxes {:.2} MB (largest window {:.2} MB), programs {:.2} MB, \
             observers {:.2} MB",
            mb(self.tables),
            mb(self.arena),
            mb(self.backlog),
            mb(self.event_queues),
            mb(self.router_state),
            mb(self.nic_state),
            mb(self.mailboxes),
            mb(self.largest_mail_window),
            mb(self.programs),
            mb(self.observers)
        )
    }
}

/// The flit-level network simulator (topology-agnostic: any
/// [`Topology`] implementation wrapped in [`AnyTopology`]).
pub struct Engine<O: ShardObserver> {
    topo: AnyTopology,
    cfg: EngineConfig,
    plan: ShardPlan,
    shards: Vec<Shard<O>>,
    mail: MailGrid,
    injector: Box<dyn TrafficInjector>,
    /// The next injection pulled from the injector but not yet distributed
    /// (the one-element lookahead that keeps the stream lazy).
    pending_injection: Option<Injection>,
    next_packet_id: u64,
    now: SimTime,
}

impl<O: ShardObserver> Engine<O> {
    /// Build a simulator: one router state and one routing agent per router,
    /// one NIC per node, partitioned into `cfg.shards` conservative-parallel
    /// shards (the shard count never changes simulation results).
    pub fn new(
        topo: impl Into<AnyTopology>,
        cfg: EngineConfig,
        algorithm: &dyn RoutingAlgorithm,
        mut injector: Box<dyn TrafficInjector>,
        observer: O,
        seed: u64,
    ) -> Self {
        let topo: AnyTopology = topo.into();
        assert_eq!(
            cfg.num_vcs,
            algorithm.num_vcs(),
            "EngineConfig::num_vcs must match the routing algorithm's VC requirement"
        );
        // The conservative lookahead is the topology's minimum
        // cross-domain link latency (the global-link latency on every
        // shipped topology) — no Dragonfly-specific constant.
        let lookahead = topo.min_cross_domain_latency(cfg.local_latency_ns, cfg.global_latency_ns);
        let num_shards = cfg.shards.resolve(topo.num_domains(), lookahead);
        let plan = ShardPlan::new(&topo, num_shards, lookahead);
        let shards: Vec<Shard<O>> = (0..plan.num_shards())
            .map(|i| {
                Shard::new(
                    &topo,
                    &cfg,
                    algorithm,
                    observer.clone(),
                    seed,
                    plan.clone(),
                    i,
                )
            })
            .collect();
        let mail = MailGrid::new(plan.num_shards());
        let pending_injection = injector.next_injection();
        Self {
            topo,
            cfg,
            plan,
            shards,
            mail,
            injector,
            pending_injection,
            next_packet_id: 0,
            now: 0,
        }
    }

    // ------------------------------------------------------------------
    // Public accessors
    // ------------------------------------------------------------------

    /// Current simulation time (ns).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &AnyTopology {
        &self.topo
    }

    /// Whether any event remains scheduled anywhere — in a shard queue or
    /// the pending-injection slot (a run delivers all cross-shard mail
    /// before it returns). `false` means a further
    /// `run_to_drain`/`run_until` cannot process anything (closed-loop
    /// runs reach this long before their drain cap).
    pub fn has_pending_events(&self) -> bool {
        self.pending_injection.is_some()
            || self
                .shards
                .iter()
                .any(|shard| shard.next_local_time().is_some())
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The number of conservative-parallel shards actually running.
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// Aggregate counters, including per-shard drain progress.
    pub fn stats(&self) -> EngineStats {
        let mut stats = EngineStats::default();
        for (i, shard) in self.shards.iter().enumerate() {
            let drain = ShardDrain {
                generated: shard.generated,
                delivered: shard.delivered,
                dropped: shard.dropped,
                resident: shard.resident() as u64,
                inbound_mail: self.mail.packets_bound_for(i),
                events: shard.events_processed(),
            };
            stats.generated += shard.generated;
            stats.injected += shard.injected;
            stats.delivered += shard.delivered;
            stats.dropped += shard.dropped;
            stats.retransmits += shard.retransmits;
            stats.events += drain.events;
            stats.shards.push(drain);
        }
        stats
    }

    /// Borrow the observer (metric collector). Only valid on single-shard
    /// engines — a sharded engine has one observer per shard; use
    /// [`Engine::merged_observer`] or [`Engine::into_observer`] instead.
    pub fn observer(&self) -> &O {
        assert_eq!(
            self.shards.len(),
            1,
            "observer() needs a single-shard engine; use merged_observer()"
        );
        self.shards[0].observer()
    }

    /// Mutably borrow the observer (single-shard engines only, see
    /// [`Engine::observer`]).
    pub fn observer_mut(&mut self) -> &mut O {
        assert_eq!(
            self.shards.len(),
            1,
            "observer_mut() needs a single-shard engine; use merged_observer()"
        );
        self.shards[0].observer_mut()
    }

    /// Merge the per-shard observers into one aggregate view: a clone of
    /// shard 0's absorbing the others in ascending shard order, so the
    /// result is deterministic and identical to a single-shard run for
    /// observers that accumulate order-independently.
    pub fn merged_observer(&self) -> O {
        let mut merged = self.shards[0].observer().clone();
        for shard in &self.shards[1..] {
            merged.absorb(shard.observer());
        }
        merged
    }

    /// Consume the engine and return the merged observer.
    pub fn into_observer(self) -> O {
        let mut shards = self.shards.into_iter();
        let mut merged = shards.next().expect("at least one shard").into_observer();
        for shard in shards {
            merged.absorb(&shard.into_observer());
        }
        merged
    }

    /// Borrow the routing agent of one router (useful for inspecting
    /// learned state in tests and analyses).
    pub fn agent(&self, router: RouterId) -> &dyn crate::routing::RouterAgent {
        self.shards[self.plan.shard_of_router(router)].agent(router)
    }

    /// Heap footprint of the simulation state in bytes, rolled up across
    /// shards: every routing agent's Q-table storage, every shard's packet
    /// arena and NIC backlog pool (so every generated but undelivered
    /// packet is counted) and the cross-shard mail in flight (none between
    /// runs). What exists only inside a run (the window gate, staged
    /// injections) is not state. The metrics side (sketches, time series)
    /// is accounted separately by the observer — see
    /// `MetricsCollector::memory_bytes` in `dragonfly-sim`.
    pub fn memory_bytes(&self) -> usize {
        let shards: usize = self.shards.iter().map(|s| s.memory_bytes()).sum();
        shards + self.mail.memory_bytes()
    }

    /// [`Engine::memory_bytes`] by owner, plus what it does not count: the
    /// event queues, the router and NIC state, the task programs and the
    /// observers. Summed over shards; `tables + arena + backlog +
    /// mailboxes` is `memory_bytes()`.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let mut heap = MemoryBreakdown {
            mailboxes: self.mail.memory_bytes(),
            largest_mail_window: self.mail.largest_batch_bytes(),
            ..MemoryBreakdown::default()
        };
        for shard in &self.shards {
            shard.add_memory(&mut heap);
        }
        heap
    }

    /// Total packets currently buffered inside the router fabric.
    pub fn fabric_occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.fabric_occupancy()).sum()
    }

    /// Total packets waiting in NIC backlogs.
    pub fn nic_backlog(&self) -> usize {
        self.shards.iter().map(|s| s.nic_backlog()).sum()
    }

    // ------------------------------------------------------------------
    // Closed-loop workloads
    // ------------------------------------------------------------------

    /// Install one closed-loop task program per node (see
    /// [`crate::workload`]) and schedule every program's start at `t = 0`.
    /// Must be called before any `run_*`; typically paired with an
    /// [`crate::injector::EmptyInjector`] and [`Engine::run_to_drain`].
    ///
    /// Programs are handed to the shards that own their nodes; every task
    /// transition afterwards fires from shard-local events with
    /// content-derived keys, so the closed-loop schedule is bit-for-bit
    /// identical across shard counts and execution modes.
    pub fn install_workload(&mut self, programs: Vec<crate::workload::NodeProgram>) {
        assert_eq!(self.now, 0, "install_workload must precede running");
        assert_eq!(
            programs.len(),
            self.topo.num_nodes(),
            "one program per node"
        );
        for (i, ops) in programs.into_iter().enumerate() {
            let node = NodeId::from_index(i);
            let shard = self.plan.shard_of_router(self.topo.router_of_node(node));
            self.shards[shard].install_task(node, ops);
        }
    }

    /// Number of installed task programs that ran to completion.
    pub fn tasks_finished(&self) -> u64 {
        self.shards.iter().map(|s| s.tasks_finished()).sum()
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Install a compiled fault schedule. Entry times are quantized **up**
    /// to lookahead-window multiples (see [`crate::fault`]), and every
    /// shard receives the full schedule so all liveness queries stay
    /// shard-local. Must be called before any `run_*`.
    pub fn install_faults(&mut self, schedule: &crate::fault::FaultSchedule) {
        assert_eq!(self.now, 0, "install_faults must precede running");
        let quantized = schedule.quantized(self.plan.lookahead());
        for shard in &mut self.shards {
            shard.install_faults(quantized.events.clone());
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint / resume
    // ------------------------------------------------------------------

    /// Snapshot the complete mutable simulation state (see
    /// [`crate::checkpoint`] for the resume contract). Valid between two
    /// `run_*` calls on any engine, whatever its shard count: a run
    /// returns between windows with all cross-shard mail delivered, so the
    /// union of shard states is a globally consistent cut. One walk over the
    /// shards writes it in the canonical form, which has the same bytes at
    /// every shard count and resumes bit-for-bit under **any** shard count
    /// and pipeline setting.
    pub fn checkpoint(&self) -> crate::checkpoint::EngineCheckpoint {
        debug_assert!(self.mail.is_empty(), "checkpoint with mail in the grid");
        crate::checkpoint::EngineCheckpoint {
            now: self.now,
            next_packet_id: self.next_packet_id,
            pending_injection: self.pending_injection,
            injector: self.injector.save_state(),
            shard: Shard::canonical_checkpoint(&self.shards, self.now),
        }
    }

    /// Whether [`Engine::restore`] can take `ck`: entity counts, router
    /// shapes and agent sections ([`crate::routing::RouterAgent::check_state`])
    /// fit this engine; every router, node, port and VC an event, pending
    /// injection or retry entry names exists, no event is a marker and the
    /// injections ascend by id; the fault schedule is the installed one, the
    /// cursor inside it; the snapshot's packet columns are of equal length,
    /// the canonical walk meets every slot once, and each is a packet this
    /// engine can hold ([`crate::packet::Packet::from_columns`]); the NICs'
    /// queued counts add up to the backlog's columns, each record one its
    /// NIC could have generated; and the tasks fit the installed workload:
    /// one per node exactly when one is installed, each `pc` inside the
    /// program compiled for it, `avail` counters ascending by existing
    /// sources. Callers restoring a snapshot they did not just take ask
    /// first; `restore` panics on (or silently mis-restores) what this
    /// refuses. The error names the router, NIC, event, node or entry and
    /// the field.
    pub fn check_restorable(&self, ck: &crate::checkpoint::EngineCheckpoint) -> Result<(), String> {
        let (routers, nodes) = (self.topo.num_routers(), self.topo.num_nodes());
        let shard = &ck.shard;
        for (field, have, want) in [
            ("routers", shard.routers.len(), routers),
            ("agents", shard.agents.len(), routers),
            ("nics", shard.nics.len(), nodes),
        ] {
            if have != want {
                return Err(format!(
                    "snapshot holds {have} {field}, this topology has {want}"
                ));
            }
        }
        for (r, state) in shard.routers.iter().enumerate() {
            state
                .check_fits(self.topo.radix(RouterId::from_index(r)), &self.cfg)
                .map_err(|e| format!("state of router {r}: {e}"))?;
        }
        for (r, state) in shard.agents.iter().enumerate() {
            self.agent(RouterId::from_index(r))
                .check_state(state)
                .map_err(|e| format!("agent of router {r}: {e}"))?;
        }
        self.check_ids(shard)?;
        self.shards[0].check_faults(shard)?;
        for s in &self.shards {
            s.check_tasks(shard)?;
        }
        self.check_packets(ck)
    }

    /// The id half of [`Engine::check_restorable`].
    fn check_ids(&self, shard: &crate::checkpoint::ShardCheckpoint) -> Result<(), String> {
        use crate::event::EventKind::*;
        let (routers, nodes) = (self.topo.num_routers(), self.topo.num_nodes());
        let within = |field: &str, i: usize, n: usize, of: &str| match i < n {
            true => Ok(()),
            false => Err(format!("{field} = {i}, outside the {n} {of}")),
        };
        let in_nodes = |field, n: NodeId| within(field, n.index(), nodes, "nodes");
        let in_routers = |field, r: RouterId| within(field, r.index(), routers, "routers");
        let in_ports = |field, r: RouterId, p: dragonfly_topology::ids::Port| {
            in_routers("router", r)?;
            within(field, p.index(), self.topo.radix(r), "ports of its router")
        };
        let in_vcs = |vc: u8| within("vc", vc.into(), self.cfg.num_vcs, "VCs");
        for (i, ev) in shard.queue.events.iter().enumerate() {
            match ev.kind {
                TrafficArrival => Err("a snapshot holds no injection markers".to_string()),
                NicTryInject { node } | NicCredit { node } | TaskWake { node } => {
                    in_nodes("node", node)
                }
                TaskRecv { node, src } => in_nodes("node", node).and(in_nodes("src", src)),
                DropNotice { node, dst, .. } | NicResend { node, dst, .. } => {
                    in_nodes("node", node).and(in_nodes("dst", dst))
                }
                RouterArrive {
                    router, port, vc, ..
                }
                | SwitchAttempt { router, port, vc }
                | CreditArrive { router, port, vc } => {
                    in_ports("port", router, port).and(in_vcs(vc))
                }
                OutputAttempt { router, port } => in_ports("port", router, port),
                RlFeedback { router, msg } => (in_ports("msg.port", router, msg.port))
                    .and(in_nodes("msg.src", msg.src).and(in_nodes("msg.dst", msg.dst)))
                    .and(in_routers("msg.dst_router", msg.dst_router)),
            }
            .map_err(|e| {
                let kind = format!("{:?}", ev.kind);
                let kind = kind.split(' ').next().unwrap_or_default();
                format!("event {i} ({kind} at {} ns): {e}", ev.time)
            })?;
        }
        let pending = &shard.pending_injections;
        for (i, inj) in pending.iter().enumerate() {
            let order = match i > 0 && pending[i - 1].id >= inj.id {
                true => Err(format!("id = {}, not above the one before", inj.id)),
                false => Ok(()),
            };
            let ids = in_nodes("src", inj.src).and(in_nodes("dst", inj.dst));
            ids.and(order)
                .map_err(|e| format!("pending_injections[{i}]: {e}"))?;
        }
        let source = |id| crate::workload::workload_source(id).filter(|&n| n < nodes as u64);
        match shard.retry_counts.keys().find(|&&id| source(id).is_none()) {
            Some(id) => Err(format!(
                "retry_counts key {id}: not a workload packet id of one of the {nodes} nodes"
            )),
            None => Ok(()),
        }
    }

    /// The packet half of [`Engine::check_restorable`]: the fabric packets
    /// and the backlog.
    fn check_packets(&self, ck: &crate::checkpoint::EngineCheckpoint) -> Result<(), String> {
        let shard = &ck.shard;
        let (arena, backlog) = (&shard.arena, &shard.backlog);
        let (packets, messages) = (arena.len(), backlog.len());
        if let Some((column, n)) = arena.column_lens().into_iter().find(|&(_, n)| n != packets) {
            return Err(format!(
                "arena: the {column} column holds {n} packets, the id column {packets}"
            ));
        }
        if let Some((column, n)) = backlog
            .column_lens()
            .into_iter()
            .find(|&(_, n)| n != messages)
        {
            return Err(format!(
                "backlog: the {column} column holds {n} messages, the id column {messages}"
            ));
        }
        let mut held = vec![false; packets];
        let mut hold = |r: crate::arena::PacketRef, owner: &dyn Fn() -> String| match held
            .get_mut(r.index())
        {
            None => Err(format!(
                "{} holds packet ref {}, outside the arena's {packets} slots",
                owner(),
                r.0,
            )),
            Some(true) => Err(format!(
                "{} holds arena slot {}, which the walk already met",
                owner(),
                r.0
            )),
            Some(slot) => {
                *slot = true;
                Ok(())
            }
        };
        // A packet in a router buffer or on a link becomes a run-time packet
        // again at restore.
        let fabric = |pref: crate::arena::PacketRef, owner: &dyn Fn() -> String| {
            Packet::from_columns(arena, pref.index(), &self.topo, &self.cfg)
                .map(drop)
                .map_err(|e| format!("{}, arena slot {}: {e}", owner(), pref.0))
        };
        for (r, state) in shard.routers.iter().enumerate() {
            for (field, port, vc, pref) in state.packet_refs() {
                let owner = || format!("state of router {r}: {field} port {} VC {vc}", port.0);
                hold(pref, &owner)?;
                fabric(pref, &owner)?;
            }
        }
        for (i, ev) in shard.queue.events.iter().enumerate() {
            if let crate::event::EventKind::RouterArrive { packet, .. } = ev.kind {
                let owner = || format!("event {i} (RouterArrive at {} ns): packet", ev.time);
                hold(packet, &owner)?;
                fabric(packet, &owner)?;
            }
        }
        if let Some(slot) = held.iter().position(|&h| !h) {
            return Err(format!("arena slot {slot} is held by no router or event"));
        }
        let queued = (shard.nics.iter()).fold(0usize, |sum, nic| sum.saturating_add(nic.queued));
        if queued != messages {
            return Err(format!(
                "nics: the queued counts sum to {queued}, the backlog holds {messages} messages"
            ));
        }
        let (nodes, next_id) = (self.topo.num_nodes(), ck.next_packet_id);
        let mut first = 0;
        for (n, nic) in shard.nics.iter().enumerate() {
            if nic.credits > self.cfg.vc_buffer_packets {
                return Err(format!(
                    "NIC {n}: credits = {}, above vc_buffer_packets = {}",
                    nic.credits, self.cfg.vc_buffer_packets
                ));
            }
            let src = NodeId::from_index(n);
            for i in first..first + nic.queued {
                crate::nic::check_queued(backlog.get(i), src, nodes, shard.now, next_id)
                    .map_err(|e| format!("NIC {n}: backlog[{i}]: {e}"))?;
            }
            first += nic.queued;
        }
        Ok(())
    }

    /// Replace this freshly built engine's state with a checkpoint's. The
    /// engine must have been constructed from the same topology, config,
    /// algorithm, injector type, seed and (if any) workload and fault
    /// schedule as the one that produced the checkpoint — restore rewinds
    /// the eager bootstrap work `new`/`install_workload` did and replays
    /// the saved state on top, after which `run_until`/`run_to_drain`
    /// continue bit-for-bit identically to the uninterrupted run.
    ///
    /// The shard count and pipeline setting of this engine may differ
    /// from the checkpointing engine's: each shard reads its share of the
    /// canonical snapshot in place, for this engine's
    /// [`crate::sync::ShardPlan`], into the routers, agents, NICs and task
    /// programs `new` and `install_workload` built (a task keeps its
    /// compiled program and takes the saved counters), so the restore holds
    /// no copy of the snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the engine has already run, or if the checkpoint was
    /// taken on a different topology (entity counts disagree).
    pub fn restore(&mut self, ck: &crate::checkpoint::EngineCheckpoint) {
        assert_eq!(self.now, 0, "restore requires a freshly built engine");
        let (routers, nodes) = (self.topo.num_routers(), self.topo.num_nodes());
        assert_eq!(
            (ck.shard.routers.len(), ck.shard.nics.len()),
            (routers, nodes),
            "checkpoint topology mismatch: (routers, nodes) of the snapshot and this engine"
        );
        self.now = ck.now;
        self.next_packet_id = ck.next_packet_id;
        // `new` eagerly pulled the first injection; the checkpointed
        // injector state and pending slot overwrite that pull entirely.
        self.pending_injection = ck.pending_injection;
        self.injector.load_state(&ck.injector);
        for shard in &mut self.shards {
            shard.restore(&ck.shard);
        }
    }

    /// Seed the observer state of a resumed run (the engine checkpoint
    /// deliberately excludes observers — they are a caller concern). The
    /// carried-over state lands on shard 0; observer merging is a
    /// commutative fold over per-shard accumulators, so
    /// [`Engine::merged_observer`] produces the same final value no
    /// matter which shard holds the pre-resume prefix.
    pub fn seed_observer(&mut self, observer: O) {
        *self.shards[0].observer_mut() = observer;
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Run the simulation until (and including) simulated time `t_end`.
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, t_end: SimTime) -> u64 {
        let processed = self.run_events(t_end);
        self.now = self.now.max(t_end);
        processed
    }

    /// Run until there are no more events (traffic exhausted and all packets
    /// drained) or until `t_max` is reached. Returns the finishing time and
    /// the number of events processed by this call.
    pub fn run_to_drain(&mut self, t_max: SimTime) -> (SimTime, u64) {
        let processed = self.run_events(t_max);
        (self.now, processed)
    }

    /// Process every event with `time <= t_cap`, across all shards: epochs
    /// of the window loop, each starting at the earliest pending event,
    /// until nothing is left at or before `t_cap`.
    fn run_events(&mut self, t_cap: SimTime) -> u64 {
        let mut processed = 0;
        loop {
            // Between epochs the world is stopped: deliver the mail still
            // in the grid, so the origin below sees every event and a run
            // leaves no mail behind.
            for shard in &mut self.shards {
                shard.deliver_from_grid(&self.mail, u64::MAX);
            }
            let origin = self
                .shards
                .iter()
                .filter_map(|s| s.next_local_time())
                .chain(self.pending_injection.map(|i| i.time))
                .min();
            match origin {
                Some(origin) if origin <= t_cap => processed += self.run_epoch(origin, t_cap),
                _ => break,
            }
        }
        let shard_now = self.shards.iter().map(|s| s.now()).max().unwrap_or(0);
        self.now = self.now.max(shard_now);
        processed
    }

    /// One epoch of the window loop from `origin`: one worker per shard on
    /// the grid [`WindowGate::grid`] picks, the calling thread being
    /// worker 0. Ends when every shard is past `t_cap` or an audit finds
    /// nothing to do within the horizon (the caller then jumps the gap).
    fn run_epoch(&mut self, origin: SimTime, t_cap: SimTime) -> u64 {
        let n = self.shards.len();
        let (window_ns, lag) = WindowGate::grid(n, self.plan.lookahead(), self.cfg.pipeline);
        let epoch = Epoch {
            topo: &self.topo,
            plan: &self.plan,
            mail: &self.mail,
            gate: WindowGate::new(n, origin, window_ns, lag, t_cap),
            feeder: Mutex::new(Feeder {
                injector: self.injector.as_mut(),
                pending: self.pending_injection,
                next_id: self.next_packet_id,
                inboxes: vec![Vec::new(); n],
            }),
            cells: self.shards.iter_mut().map(Mutex::new).collect(),
        };
        let processed = crossbeam::scope(|scope| {
            let epoch = &epoch;
            let workers: Vec<_> = (1..n)
                .map(|s| scope.spawn(move |_| epoch.work(s)))
                .collect();
            let own = epoch.work(0);
            own + workers
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .sum::<u64>()
        })
        .expect("shard scope panicked");
        let feeder = epoch.feeder.into_inner();
        // A shard's last window before the cap, and a quiescent audit,
        // both find its inbox empty.
        debug_assert!(
            feeder.inboxes.iter().all(Vec::is_empty),
            "an epoch ended with staged injections"
        );
        self.pending_injection = feeder.pending;
        self.next_packet_id = feeder.next_id;
        processed
    }
}

/// The injection cursor of one epoch, shared by its workers under one
/// mutex, so packet ids follow injector order whichever worker pumps.
struct Feeder<'a> {
    injector: &'a mut dyn TrafficInjector,
    /// The next injection, pulled from the injector but not handed out.
    pending: Option<Injection>,
    next_id: u64,
    /// Per shard, injections another worker handed out, in injector
    /// order, until the owner's next window.
    inboxes: Vec<Vec<QueuedInjection>>,
}

/// What the workers of one epoch share.
struct Epoch<'a, O: ShardObserver> {
    topo: &'a AnyTopology,
    plan: &'a ShardPlan,
    mail: &'a MailGrid,
    gate: WindowGate,
    feeder: Mutex<Feeder<'a>>,
    /// The shards: each locked by its own worker for one window at a
    /// time, and only ever `try_lock`ed by the audit.
    cells: Vec<Mutex<&'a mut Shard<O>>>,
}

/// Ends the epoch when its worker leaves the loop, panics included, so no
/// other worker waits on a gate that will never open.
struct EndEpochOnExit<'g>(&'g WindowGate);

impl Drop for EndEpochOnExit<'_> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

impl<O: ShardObserver> Epoch<'_, O> {
    /// Worker `s`: run shard `s`'s windows in order until the epoch ends.
    /// Every way out of the loop ends the epoch — all shards parked, a
    /// quiescent audit, or another worker having ended it.
    fn work(&self, s: usize) -> u64 {
        let _end = EndEpochOnExit(&self.gate);
        let (mut processed, mut idle, mut spins) = (0, 0u32, 0u32);
        // The window whose injections shard `s` already holds.
        let mut fed = None;
        while !self.gate.is_done() {
            let w = self.gate.next_window(s);
            if self.gate.parked(w) {
                if self.gate.all_parked() {
                    break;
                }
                pause(&mut spins);
            } else if !self.gate.gate_open(w) {
                // Waiting on the gate is not idleness: it does not count
                // towards an audit. Take the window's injections meanwhile,
                // which pumps the one cursor off the critical path.
                if fed != Some(w) {
                    self.feed(&mut self.cells[s].lock(), s, self.gate.end_incl_of(w));
                    fed = Some(w);
                }
                pause(&mut spins);
            } else {
                spins = 0;
                let p = self.run_window(s, w);
                processed += p;
                idle = if p > 0 { 0 } else { idle + 1 };
                if idle >= 2 && self.audit() {
                    break;
                }
            }
        }
        processed
    }

    /// Shard `s`'s window `w`: feed, take the mail of windows up to
    /// `w − lag`, run, post the mail, then publish the window as finished
    /// — after the post, which is what makes window-`w` mail visible
    /// before any shard opens `w + lag`.
    fn run_window(&self, s: usize, w: u64) -> u64 {
        let mut shard = self.cells[s].lock();
        let end_incl = self.gate.end_incl_of(w);
        self.feed(&mut shard, s, end_incl);
        if let Some(due) = w.checked_sub(self.gate.lag()) {
            shard.deliver_from_grid(self.mail, due);
        }
        let processed = shard.run_window(end_incl);
        shard.flush_outboxes(self.mail, w);
        self.gate.complete(s, w);
        processed
    }

    /// Hand shard `s` what other workers staged for it up to `end_incl`,
    /// then advance the cursor to `end_incl`: `s`'s own injections go
    /// straight in, the others' are staged for their owners. Every shard
    /// thereby accepts its injections in injector order, each window's
    /// whichever worker pumped them; with one shard nothing is staged.
    fn feed(&self, shard: &mut Shard<O>, s: usize, end_incl: SimTime) {
        let mut guard = self.feeder.lock();
        let f = &mut *guard;
        let due = f.inboxes[s].partition_point(|q| q.time <= end_incl);
        for q in f.inboxes[s].drain(..due) {
            shard.accept_injection(q);
        }
        while let Some(injection) = f.pending.filter(|i| i.time <= end_incl) {
            let queued = QueuedInjection {
                time: injection.time,
                src: injection.src,
                dst: injection.dst,
                id: f.next_id,
            };
            f.next_id += 1;
            let owner = self
                .plan
                .shard_of_router(self.topo.router_of_node(injection.src));
            if owner == s {
                shard.accept_injection(queued);
            } else {
                f.inboxes[owner].push(queued);
            }
            f.pending = f.injector.next_injection();
        }
    }

    /// Whether the epoch can end: no shard is running, and no shard that
    /// is not parked has an event, mail or injection within
    /// [`AUDIT_HORIZON_WINDOWS`] of the slowest shard. A running shard
    /// makes the answer "no" at once; the audit never waits for one.
    fn audit(&self) -> bool {
        let mut world = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            match cell.try_lock() {
                Some(shard) => world.push(shard),
                None => return false,
            }
        }
        let horizon = self
            .gate
            .end_incl_of(self.gate.min_completed() + AUDIT_HORIZON_WINDOWS);
        // Uncontended: a worker takes the feeder only while it holds its
        // own shard.
        let feeder = self.feeder.lock();
        feeder.pending.map_or(NO_EVENT, |i| i.time) > horizon
            && world.iter().enumerate().all(|(s, shard)| {
                // A parked shard has nothing left this run: mail addressed
                // to it fires after the cap and is delivered between
                // epochs.
                feeder.inboxes[s].is_empty()
                    && (self.gate.parked(self.gate.next_window(s))
                        || (self.mail.is_empty_for(s)
                            && shard.next_local_time().unwrap_or(NO_EVENT) > horizon))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardKind;
    use crate::injector::{Injection, ScriptedInjector};
    use crate::observer::CountingObserver;
    use crate::testing::MinimalTestRouting;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::Dragonfly;

    fn run_scripted(injections: Vec<Injection>, t_end: SimTime) -> (EngineStats, CountingObserver) {
        run_scripted_sharded(injections, t_end, ShardKind::Single)
    }

    fn run_scripted_sharded(
        injections: Vec<Injection>,
        t_end: SimTime,
        shards: ShardKind,
    ) -> (EngineStats, CountingObserver) {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let algo = MinimalTestRouting;
        let mut cfg = EngineConfig::paper(algo.num_vcs());
        cfg.shards = shards;
        let mut engine = Engine::new(
            topo,
            cfg,
            &algo,
            Box::new(ScriptedInjector::new(injections)),
            CountingObserver::default(),
            42,
        );
        engine.run_to_drain(t_end);
        (engine.stats(), engine.merged_observer())
    }

    #[test]
    fn single_packet_same_router_is_delivered() {
        // Nodes 0 and 1 share router 0 in the tiny config (p = 2).
        let (stats, obs) = run_scripted(
            vec![Injection {
                time: 0,
                src: NodeId(0),
                dst: NodeId(1),
            }],
            1_000_000,
        );
        assert_eq!(stats.generated, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(obs.delivered, 1);
        assert_eq!(
            obs.total_hops, 0,
            "same-router delivery takes no fabric hop"
        );
    }

    #[test]
    fn single_packet_cross_group_takes_at_most_three_hops() {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        // Pick a destination in a different group from node 0.
        let dst = topo
            .nodes()
            .find(|n| topo.group_of_node(*n) != topo.group_of_node(NodeId(0)))
            .unwrap();
        let (stats, obs) = run_scripted(
            vec![Injection {
                time: 0,
                src: NodeId(0),
                dst,
            }],
            1_000_000,
        );
        assert_eq!(stats.delivered, 1);
        assert!(obs.total_hops >= 1 && obs.total_hops <= 3);
    }

    #[test]
    fn zero_load_latency_matches_theory() {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let dst = topo
            .nodes()
            .find(|n| topo.group_of_node(*n) != topo.group_of_node(NodeId(0)))
            .unwrap();
        let algo = MinimalTestRouting;
        let cfg = EngineConfig::paper(algo.num_vcs());
        let kinds =
            topo.minimal_hop_kinds(topo.router_of_node(NodeId(0)), topo.router_of_node(dst));
        let expected = cfg.theoretical_latency_ns(&kinds);
        let (_stats, obs) = run_scripted(
            vec![Injection {
                time: 0,
                src: NodeId(0),
                dst,
            }],
            1_000_000,
        );
        assert_eq!(obs.delivered, 1);
        assert_eq!(obs.total_latency_ns as u64, expected);
    }

    #[test]
    fn all_packets_eventually_delivered_under_light_random_traffic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let mut rng = StdRng::seed_from_u64(3);
        let n = topo.num_nodes();
        let mut script = Vec::new();
        for i in 0..2_000u64 {
            let src = NodeId::from_index(rng.gen_range(0..n));
            let mut dst = NodeId::from_index(rng.gen_range(0..n));
            while dst == src {
                dst = NodeId::from_index(rng.gen_range(0..n));
            }
            // roughly 20% offered load spread over all nodes
            script.push(Injection {
                time: i * 80,
                src,
                dst,
            });
        }
        let (stats, obs) = run_scripted(script, 50_000_000);
        assert_eq!(stats.generated, 2_000);
        assert_eq!(
            stats.delivered, 2_000,
            "lossless network must deliver everything"
        );
        assert!(obs.mean_hops() <= 3.0 + 1e-9);
        assert!(obs.mean_latency_ns() > 0.0);
    }

    #[test]
    fn determinism_same_seed_same_results() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes();
        let mut rng = StdRng::seed_from_u64(9);
        let script: Vec<Injection> = (0..500u64)
            .map(|i| Injection {
                time: i * 40,
                src: NodeId::from_index(rng.gen_range(0..n)),
                dst: NodeId::from_index(rng.gen_range(0..n)),
            })
            .collect();
        let (s1, o1) = run_scripted(script.clone(), 10_000_000);
        let (s2, o2) = run_scripted(script, 10_000_000);
        assert_eq!(s1, s2);
        assert_eq!(o1.total_latency_ns, o2.total_latency_ns);
        assert_eq!(o1.total_hops, o2.total_hops);
    }

    #[test]
    fn sharded_run_matches_single_shard_exactly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes();
        let mut rng = StdRng::seed_from_u64(17);
        let script: Vec<Injection> = (0..1_500u64)
            .map(|i| Injection {
                time: i * 30,
                src: NodeId::from_index(rng.gen_range(0..n)),
                dst: NodeId::from_index(rng.gen_range(0..n)),
            })
            .collect();
        let (s1, o1) = run_scripted_sharded(script.clone(), 20_000_000, ShardKind::Single);
        let (s3, o3) = run_scripted_sharded(script, 20_000_000, ShardKind::Fixed(3));
        assert_eq!(s1.generated, s3.generated);
        assert_eq!(s1.delivered, s3.delivered);
        assert_eq!(s1.events, s3.events, "event counts must match exactly");
        assert_eq!(o1.total_latency_ns, o3.total_latency_ns);
        assert_eq!(o1.total_hops, o3.total_hops);
    }

    #[test]
    fn closed_loop_ring_program_drains_and_is_shard_invariant() {
        use crate::injector::EmptyInjector;
        use crate::workload::Op;

        // Every node computes, sends 2 messages to its ring successor and
        // waits for 2 from its predecessor — a closed-loop exchange that
        // only completes when the network delivers.
        let run = |shards: ShardKind| {
            let topo = Dragonfly::new(DragonflyConfig::tiny());
            let n = topo.num_nodes();
            let algo = MinimalTestRouting;
            let mut cfg = EngineConfig::paper(algo.num_vcs());
            cfg.shards = shards;
            let mut engine = Engine::new(
                topo,
                cfg,
                &algo,
                Box::new(EmptyInjector),
                CountingObserver::default(),
                7,
            );
            let programs = (0..n)
                .map(|i| {
                    vec![
                        Op::Compute { delay_ns: 50 },
                        Op::Send {
                            dst: NodeId::from_index((i + 1) % n),
                            messages: 2,
                        },
                        Op::Recv {
                            from: NodeId::from_index((i + n - 1) % n),
                            messages: 2,
                            barrier: true,
                        },
                        Op::Phase { index: 0 },
                    ]
                })
                .map(crate::workload::NodeProgram::from)
                .collect();
            engine.install_workload(programs);
            let (end, _) = engine.run_to_drain(10_000_000);
            (end, engine.stats(), engine.tasks_finished())
        };
        let (end1, s1, f1) = run(ShardKind::Single);
        let n = Dragonfly::new(DragonflyConfig::tiny()).num_nodes() as u64;
        assert_eq!(f1, n, "every rank finishes");
        assert_eq!(s1.generated, 2 * n);
        assert_eq!(s1.delivered, 2 * n, "closed loop drains completely");
        for shards in [2usize, 3] {
            let (endk, sk, fk) = run(ShardKind::Fixed(shards));
            assert_eq!(end1, endk, "finish time is shard invariant");
            assert_eq!(s1.generated, sk.generated);
            assert_eq!(s1.delivered, sk.delivered);
            assert_eq!(s1.events, sk.events, "even the event count matches");
            assert_eq!(f1, fk);
        }
    }

    #[test]
    fn killed_router_drops_packets_and_conserves_them() {
        use crate::fault::{CompiledFault, FaultOp, FaultSchedule};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes();
        let mut rng = StdRng::seed_from_u64(5);
        let script: Vec<Injection> = (0..1_000u64)
            .map(|i| Injection {
                time: i * 60,
                src: NodeId::from_index(rng.gen_range(0..n)),
                dst: NodeId::from_index(rng.gen_range(0..n)),
            })
            .collect();
        let run = |shards: ShardKind| {
            let topo = Dragonfly::new(DragonflyConfig::tiny());
            let algo = MinimalTestRouting;
            let mut cfg = EngineConfig::paper(algo.num_vcs());
            cfg.shards = shards;
            let mut engine = Engine::new(
                topo,
                cfg,
                &algo,
                Box::new(ScriptedInjector::new(script.clone())),
                CountingObserver::default(),
                42,
            );
            engine.install_faults(&FaultSchedule {
                events: vec![CompiledFault {
                    at_ns: 10_000,
                    ops: vec![FaultOp::RouterDown {
                        router: RouterId(2),
                    }],
                }],
            });
            engine.run_to_drain(50_000_000);
            (
                engine.stats(),
                engine.merged_observer(),
                engine.nic_backlog() as u64,
            )
        };
        let (s1, o1, backlog1) = run(ShardKind::Single);
        assert!(s1.dropped > 0, "traffic through a dead router is dropped");
        // Conservation: everything generated is delivered, dropped, or
        // stuck in the source queues of the dead router's own nodes (the
        // router never comes back, so their NICs stay gated).
        assert_eq!(s1.generated, s1.delivered + s1.dropped + s1.outstanding());
        assert_eq!(
            s1.outstanding(),
            backlog1,
            "the only in-flight residue is NIC backlog behind the dead router"
        );
        assert_eq!(o1.dropped, s1.dropped, "observer sees the same drops");
        // Bit-for-bit shard invariance holds under faults too.
        let (s3, o3, backlog3) = run(ShardKind::Fixed(3));
        assert_eq!(s1.generated, s3.generated);
        assert_eq!(s1.delivered, s3.delivered);
        assert_eq!(s1.dropped, s3.dropped);
        assert_eq!(s1.events, s3.events, "event counts must match exactly");
        assert_eq!(backlog1, backlog3);
        assert_eq!(o1.total_latency_ns, o3.total_latency_ns);
        assert_eq!(o1.total_hops, o3.total_hops);
    }

    #[test]
    fn closed_loop_retransmits_through_a_router_blip() {
        use crate::fault::{CompiledFault, FaultOp, FaultSchedule};
        use crate::injector::EmptyInjector;
        use crate::workload::Op;

        // A ring exchange whose messages must survive router 1 dying
        // mid-collective and coming back: drops are retransmitted until
        // everything lands, so every rank still finishes.
        let run = |shards: ShardKind| {
            let topo = Dragonfly::new(DragonflyConfig::tiny());
            let n = topo.num_nodes();
            let algo = MinimalTestRouting;
            let mut cfg = EngineConfig::paper(algo.num_vcs());
            cfg.shards = shards;
            // Enough retries for messages to outlive the ~20 µs blip
            // under exponential backoff.
            cfg.max_retries = 10;
            let mut engine = Engine::new(
                topo,
                cfg,
                &algo,
                Box::new(EmptyInjector),
                CountingObserver::default(),
                7,
            );
            engine.install_faults(&FaultSchedule {
                events: vec![
                    CompiledFault {
                        at_ns: 500,
                        ops: vec![FaultOp::RouterDown {
                            router: RouterId(1),
                        }],
                    },
                    CompiledFault {
                        at_ns: 20_000,
                        ops: vec![FaultOp::RouterUp {
                            router: RouterId(1),
                        }],
                    },
                ],
            });
            // Staggered sends straddle the kill at t ≈ 600 ns, so some
            // messages are in flight (or generated) while router 1 is dead.
            let programs = (0..n)
                .map(|i| {
                    let succ = NodeId::from_index((i + 1) % n);
                    vec![
                        Op::Compute { delay_ns: 200 },
                        Op::Send {
                            dst: succ,
                            messages: 2,
                        },
                        Op::Compute { delay_ns: 400 },
                        Op::Send {
                            dst: succ,
                            messages: 2,
                        },
                        Op::Compute { delay_ns: 400 },
                        Op::Send {
                            dst: succ,
                            messages: 2,
                        },
                        Op::Recv {
                            from: NodeId::from_index((i + n - 1) % n),
                            messages: 6,
                            barrier: true,
                        },
                    ]
                })
                .map(crate::workload::NodeProgram::from)
                .collect();
            engine.install_workload(programs);
            let (end, _) = engine.run_to_drain(100_000_000);
            (end, engine.stats(), engine.tasks_finished())
        };
        let (end1, s1, f1) = run(ShardKind::Single);
        let n = Dragonfly::new(DragonflyConfig::tiny()).num_nodes() as u64;
        assert_eq!(f1, n, "every rank finishes despite the blip");
        assert_eq!(
            s1.generated,
            s1.delivered + s1.dropped,
            "conservation with retransmits counted as instances"
        );
        assert!(s1.retransmits > 0, "the blip forced retransmissions");
        for shards in [2usize, 3] {
            let (endk, sk, fk) = run(ShardKind::Fixed(shards));
            assert_eq!(end1, endk, "finish time is shard invariant");
            assert_eq!(s1.generated, sk.generated);
            assert_eq!(s1.delivered, sk.delivered);
            assert_eq!(s1.dropped, sk.dropped);
            assert_eq!(s1.retransmits, sk.retransmits);
            assert_eq!(s1.events, sk.events, "even the event count matches");
            assert_eq!(f1, fk);
        }
    }

    #[test]
    fn link_kill_reroutes_nothing_is_lost() {
        use crate::fault::{CompiledFault, FaultOp, FaultSchedule};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Kill one *local* link both ways mid-run. MinimalTestRouting has
        // no fallback smarts, but the tiny Dragonfly is rich enough that
        // most traffic avoids the dead link; whatever reaches a blackout
        // is dropped, and conservation still holds.
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let n = topo.num_nodes();
        // Find a local fabric link to kill (both endpoints).
        let r0 = RouterId(0);
        let mut kill_ops = Vec::new();
        for p in 0..Topology::radix(&topo, r0) {
            let port = dragonfly_topology::ids::Port::from_index(p);
            if Topology::port_kind(&topo, r0, port) == dragonfly_topology::ports::PortKind::Local {
                if let dragonfly_topology::topology::Neighbor::Router {
                    router: peer,
                    port: peer_port,
                } = topo.neighbor(r0, port)
                {
                    kill_ops = vec![
                        FaultOp::PortDown { router: r0, port },
                        FaultOp::PortDown {
                            router: peer,
                            port: peer_port,
                        },
                    ];
                    break;
                }
            }
        }
        assert!(!kill_ops.is_empty(), "tiny Dragonfly has local links");
        let mut rng = StdRng::seed_from_u64(11);
        let script: Vec<Injection> = (0..800u64)
            .map(|i| Injection {
                time: i * 70,
                src: NodeId::from_index(rng.gen_range(0..n)),
                dst: NodeId::from_index(rng.gen_range(0..n)),
            })
            .collect();
        let algo = MinimalTestRouting;
        let cfg = EngineConfig::paper(algo.num_vcs());
        let mut engine = Engine::new(
            Dragonfly::new(DragonflyConfig::tiny()),
            cfg,
            &algo,
            Box::new(ScriptedInjector::new(script)),
            CountingObserver::default(),
            42,
        );
        engine.install_faults(&FaultSchedule {
            events: vec![CompiledFault {
                at_ns: 5_000,
                ops: kill_ops,
            }],
        });
        engine.run_to_drain(50_000_000);
        let stats = engine.stats();
        assert_eq!(stats.generated, stats.delivered + stats.dropped);
        assert_eq!(stats.outstanding(), 0);
        assert!(stats.delivered > 0);
    }

    #[test]
    fn stats_outstanding_counts_undelivered() {
        let (stats, _obs) = run_scripted(
            vec![Injection {
                time: 0,
                src: NodeId(0),
                dst: NodeId(70),
            }],
            // Stop the clock before the packet can possibly arrive.
            10,
        );
        assert_eq!(stats.generated, 1);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.outstanding(), 1);
        // The per-shard drain view accounts for the same packet.
        let resident: u64 = stats.shards.iter().map(|s| s.resident).sum();
        assert_eq!(resident + stats.in_mailboxes(), stats.outstanding());
    }
}
