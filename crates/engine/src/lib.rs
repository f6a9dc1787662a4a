//! # dragonfly-engine
//!
//! A flit-level, event-driven interconnect simulator — the substrate the
//! Q-adaptive paper builds on (the paper uses SST/Merlin; this crate is a
//! from-scratch Rust equivalent at the same modelling granularity). The
//! engine is **topology-agnostic**: it simulates any
//! [`dragonfly_topology::Topology`] implementation (Dragonfly, fat-tree,
//! HyperX, …) carried as a [`dragonfly_topology::AnyTopology`]; per-router
//! port layouts, link kinds and the sharding partition all come from the
//! trait.
//!
//! ## Model
//!
//! * **Packets** are single 128 B flits (the paper's configuration), so the
//!   flit and packet level coincide. Serialisation over a 4 GB/s link takes
//!   32 ns per packet.
//! * **Routers** are input-output queued: every port has per-virtual-channel
//!   input buffers (20 packets each) and per-virtual-channel output queues.
//!   A packet arriving on an input buffer waits one router traversal
//!   latency, asks the router's [`routing::RouterAgent`] for an output port,
//!   moves to the corresponding output queue when it has space, and is then
//!   serialised onto the link when a credit for the downstream buffer is
//!   available.
//! * **Credit-based flow control**: a router may only send a packet to a
//!   neighbour when the neighbour's input buffer for the chosen virtual
//!   channel has a free slot; credits travel back with one link latency.
//!   The network is lossless.
//! * **Links** have 30 ns (local) / 300 ns (global) latency and 4 GB/s
//!   bandwidth, matching the paper's experimental setup.
//! * **NICs** hold an unbounded source queue per compute node (offered load
//!   beyond what the network accepts accumulates there, which is what lets
//!   the measured throughput saturate below the offered load).
//! * **Reinforcement-learning feedback**: whenever router *y* forwards a
//!   packet it received from router *x*, the engine delivers the per-hop
//!   delay (the RL reward) and *y*'s own remaining-time estimate back to
//!   *x*'s agent after one link latency, modelling the paper's piggy-backing
//!   of rewards on credit/control traffic.
//!
//! ## Scheduler and packet arena (the hot path)
//!
//! The event loop is the performance bottleneck of every experiment, so its
//! two central data structures are built for speed without giving up
//! determinism:
//!
//! * **Event scheduling** uses a two-level *calendar queue*
//!   ([`event::CalendarQueue`]): a power-of-two wheel of 1 ns buckets
//!   sized to the link/serialisation latencies (which bound how far ahead
//!   the fabric ever schedules) plus a binary-heap overflow level for the
//!   rare far-future event. Push and pop are O(1) amortised instead of the
//!   binary heap's O(log n), and pops walk a compact occupancy bitmap
//!   instead of chasing a heap. It is the only queue the engine runs
//!   ([`event::EventQueue`]); a plain `BinaryHeap` survives as the oracle
//!   its unit tests compare pop order against.
//! * **Packets** live in a slab-style [`arena::PacketArena`] for their
//!   whole life *within a shard*; events, NIC queues and router buffers
//!   move 4-byte [`arena::PacketRef`] handles instead of boxed packets, so
//!   a fabric hop performs no heap allocation and no pointer chase.
//!
//! Three further per-event overheads matter only once systems reach the
//! 100k-node scale, where the event count per run is in the millions and
//! every queue and mailbox is three orders of magnitude busier than on
//! the paper's 1,056 nodes:
//!
//! * **Same-tick ordering is a heap, not an insertion sort.** The
//!   calendar queue keeps each 1 ns bucket's events in a small min-heap
//!   ordered by `(key, seq)` rather than a sorted Vec with positional
//!   inserts: at scale a single nanosecond can hold hundreds of events
//!   for one bucket, and the positional insert's memmove made bucket
//!   maintenance quadratic in the tick population. The heap preserves
//!   the exact `(time, key, seq)` total order the determinism contract
//!   requires (pop order is identical; only the transient in-bucket
//!   layout differs).
//! * **Mailbox draining reuses buffers.** Window exchange drains
//!   cross-shard mail directly from the [`sync::MailGrid`] into a
//!   per-shard scratch buffer that lives for the whole run
//!   (`Shard::deliver_from_grid`), instead of collecting each window's
//!   mail into a fresh `Vec` — at half-lookahead window granularity the
//!   allocator was on the per-window critical path.
//! * **Queues are pre-sized for the fabric.** Event queues are sized
//!   from the entity count (routers + NICs) at construction and restore
//!   (`EventQueue::for_config_with_entities`), so the first measured
//!   window does not pay a cascade of geometric regrowths on a fabric
//!   whose steady-state event population is predictable up front.
//!
//! ## Sharded conservative-parallel execution
//!
//! One simulation can run across several cores ([`config::ShardKind`]):
//! routers are partitioned by **locality domain** — the topology's
//! sharding unit: Dragonfly groups, fat-tree pods (plus their slice of
//! the core switches), HyperX rows — into shards ([`sync::ShardPlan`]).
//! The [`dragonfly_topology::Topology`] contract guarantees each domain
//! is a contiguous router/node id range and that every link between
//! routers of different domains carries at least
//! `Topology::min_cross_domain_latency` (the global-link latency on all
//! shipped topologies). Each shard owns its own calendar queue, packet
//! arena and observer clone ([`shard::Shard`]), and shards execute
//! lockstep windows of one **lookahead** — that minimum cross-domain
//! latency, the minimum delay of any cross-shard interaction (packet
//! over a cross-domain link, returning credit, RL feedback). Cross-shard
//! events are exchanged
//! through per-pair mailboxes ([`sync::MailGrid`]) at window barriers;
//! packets cross **by value**, so a `PacketRef` is never dereferenced
//! outside the arena that issued it. Within a window every shard runs
//! lock-free; no null messages and no rollback are needed
//! (bounded-window conservative PDES).
//!
//! ## The two-phase window pipeline (overlapped windows)
//!
//! With [`config::EngineConfig::pipeline`] (the default), the lockstep
//! barrier is replaced by an **overlapped** schedule: windows shrink to
//! half a lookahead (`W = L/2`), each window splits into a *compute*
//! phase and an *exchange* phase over **double-buffered** per-pair
//! mailboxes (one buffer per window parity `w mod 2`), and shards are
//! paced by the lagged gate of a [`sync::WindowDeque`] — shard `k` may
//! start window `w` as soon as every shard has finished window `w − 2`.
//! Mail sent while computing window `w` fires at `≥ start(w) + L =
//! start(w + 2)`, so it only has to reach its destination two windows
//! later; posting into parity `w mod 2` at the end of window `w` and
//! draining the same parity at the start of window `w + 2` meets that
//! deadline exactly, while one shard's compute overlaps its neighbours'
//! compute *and* the previous window's exchange. `pipeline = false`
//! keeps the PR 3 lockstep barrier as the reference execution mode.
//!
//! **Work stealing — whole windows only.** The `WindowDeque` doubles as
//! a shared work frontier: an idle worker thread claims *any* shard
//! whose next window has passed the gate and executes it (drain →
//! compute → post) on that shard's own queue and arena. The granularity
//! rule is load-bearing: a work item is always **one whole window of one
//! shard**, never an individual event. Because a shard's windows execute
//! in order under the shard's lock, the event sequence each shard
//! processes is identical no matter which worker runs it — stealing
//! redistributes wall-clock work, not events. Stealing at event
//! granularity would interleave two shards' state and break both
//! locality and the ordering argument below.
//!
//! **Why determinism survives both.** Events are totally ordered by the
//! content-derived key (next section), so *when* a cross-shard message
//! is merged into the destination queue — at the barrier, one window
//! early from a racing parity drain, or two windows later after a
//! drained-while-filling race — cannot change the order in which events
//! are processed, only where in the queue the message briefly waits.
//! Combined with the whole-window stealing rule and injector-order
//! packet-id assignment under a single feeder cursor, `shards = 1` and
//! `shards = N` are bit-for-bit identical with pipelining on or off
//! (pinned by the `pipeline_differential` and `pipeline_determinism`
//! property suites on top of the PR 3 differentials).
//!
//! **Determinism contract:** events are totally ordered by
//! `(time, key, seq)` where `key` is a *content-derived* priority
//! ([`event::event_key`]: event class + targeted entity + packet id) and
//! `seq` (assigned at push) only breaks ties between identical events.
//! Because the key does not depend on push order, a cross-shard event
//! sorts into the destination queue exactly where the single-queue engine
//! would have processed it, making **every shard count bit-for-bit
//! identical** — `shards = 1` vs `shards = N` is pinned by the
//! `shard_differential` integration test. Arena slot assignment recycles
//! through a per-shard LIFO free list and packet ids are assigned by the
//! coordinator in injector order, so neither introduces run-to-run or
//! across-shard-count variation.
//!
//! The engine is deterministic for a fixed seed, traffic injector and
//! routing algorithm — independent of shard count, pipelining and thread
//! scheduling.
//!
//! **Streaming statistics and determinism.** The contract extends to the
//! measurement side. Per-shard observers are merged in ascending shard
//! order, but order alone is not enough for floating-point aggregates: a
//! sharded run hands each shard a *subset* of the samples, so a mean or
//! quantile computed from partial floating-point sums could differ from
//! the single-shard value in the last bit. The `dragonfly-metrics`
//! collectors therefore accumulate exclusively in **integers** — latency
//! sums in `u128` nanoseconds, log-binned sketch and histogram buckets as
//! `u64` counters, time-series bins as integer packet/byte tallies. Each
//! delivered packet increments exactly one bin, integer addition is
//! associative and commutative, so *any* partition of the packets across
//! shards merges to the same totals and every derived statistic (mean,
//! p99, sketch quantile) is computed once, at reporting time, from
//! identical integers. This is what lets `shards = 1` vs `shards = N`
//! stay bit-for-bit even with bounded-memory streaming sketches in place
//! of exact sample vectors.
//!
//! ## Closed-loop task programs (delivery-triggered wakeups)
//!
//! Besides open-loop injector traffic, every node can run a straight-line
//! task program ([`workload::Op`]: compute delays, asynchronous sends,
//! counting receives, phase markers) installed via
//! [`engine::Engine::install_workload`]. Execution is *closed-loop*: a
//! `Recv` op blocks its node until the network has actually delivered the
//! counted messages, so generation reacts to backpressure instead of
//! following a rate.
//!
//! Delivery-triggered wakeups preserve the determinism contract by
//! construction:
//!
//! * Every task transition fires from one of two new event classes —
//!   [`event::EventKind::TaskWake`] (program start, compute completion)
//!   keyed by the node, and [`event::EventKind::TaskRecv`] (one message
//!   delivered) keyed by `(destination, source)` — so same-tick
//!   transitions have a content-derived total order like every other
//!   event. Two same-key `TaskRecv`s are commutative "+1" counter bumps,
//!   the one shape `seq` ties are allowed to break.
//! * A packet is always ejected by the shard that owns its destination
//!   node (host ports never cross shards), so the `TaskRecv` wakeup is a
//!   **shard-local** push at the delivery time — no new cross-shard
//!   channel, no lookahead interaction, and windows planned from
//!   `next_local_time()` see task events automatically in all three
//!   execution modes.
//! * Workload sends post packets at the node's own NIC through the same
//!   generation path as injector traffic, with ids from a disjoint
//!   deterministic namespace ([`workload::workload_packet_id`]: source
//!   node + per-node sequence), so id assignment cannot depend on which
//!   mode executes a window first.
//!
//! `Recv` matching is MPI-style per-source counting (no tags): order of
//! arrival is irrelevant, which is exactly what makes the blocked/ready
//! state a pure function of delivered-message counts rather than event
//! interleaving.
//!
//! ## Fault injection, drop accounting and recovery
//!
//! The engine can kill and restore links and routers mid-run
//! ([`fault::FaultSchedule`], installed via
//! [`engine::Engine::install_faults`]): a compiled schedule of port/router
//! liveness flips whose times are **quantized up to lookahead-window
//! boundaries**, so a fault lands between the same two windows no matter
//! the shard count or execution mode and the determinism contract above
//! survives fault injection unchanged. Routing agents see liveness
//! through [`routing::RouterCtx::port_up`] and fall back deterministically
//! (no extra RNG draws) when a candidate port is dead; packets stranded at
//! a fully dead router are **dropped with accounting** rather than lost:
//! the upstream credit is refunded, the observer hears
//! `packet_dropped`, and the source NIC receives a drop notice that
//! triggers a bounded, exponentially backed-off retransmit
//! ([`config::EngineConfig::max_retries`]). Conservation —
//! `generated == delivered + dropped + outstanding` — holds at every
//! instant of a faulted run ([`EngineStats::outstanding`]).
//!
//! ## Checkpoint / resume
//!
//! The engine can snapshot its complete mutable state between runs under
//! **any execution mode** — sharded, pipelined or sequential
//! ([`engine::Engine::checkpoint`] / [`engine::Engine::restore`], state
//! shapes in [`checkpoint`]): router buffers, NIC queues, the packet
//! arena, the pending event set *with its sequence counters* (so
//! tie-breaks replay identically), fault cursor, task programs, agent
//! RNG/Q-table state and the injector position. Snapshots are taken at a
//! window boundary, which is a globally consistent cut (no cross-shard
//! message is in flight), and are normalized to a canonical
//! **single-shard-equivalent form** that is independent of the partition
//! that produced it: a checkpoint taken at `shards = N` restores onto an
//! engine running `shards = M` for any `M`, pipeline on or off.
//! Restoring into a freshly built engine resumes **bit-for-bit**: the
//! resumed run is indistinguishable from the uninterrupted one, which
//! the `checkpoint_resume` differential suite in `dragonfly-sim` pins at
//! full-report equality across shard counts, pipeline modes and all
//! three fabrics.
//!
//! ## Who plugs in what
//!
//! * Routing algorithms implement [`routing::RoutingAlgorithm`] /
//!   [`routing::RouterAgent`] (see `dragonfly-routing` and
//!   `qadaptive-core`).
//! * Open-loop workloads implement [`injector::TrafficInjector`]
//!   (see `dragonfly-sim`, which adapts `dragonfly-traffic` patterns);
//!   closed-loop workloads compile to [`workload::NodeProgram`]s
//!   (see `dragonfly-workload`).
//! * Measurement code implements [`observer::SimObserver`]
//!   (see `dragonfly-metrics` collectors in `dragonfly-sim`).

pub mod arena;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod event;
pub mod fault;
pub mod injector;
pub mod nic;
pub mod observer;
pub mod packet;
pub mod router;
pub mod routing;
pub mod shard;
pub mod sync;
pub mod testing;
pub mod time;
pub mod workload;

pub use arena::{PacketArena, PacketRef};
pub use checkpoint::{AgentCheckpoint, EngineCheckpoint, InjectorCheckpoint};
pub use config::{EngineConfig, ShardKind};
pub use engine::{Engine, EngineStats, ShardDrain};
pub use fault::{CompiledFault, FaultOp, FaultSchedule};
pub use injector::{Injection, TrafficInjector};
pub use observer::{ShardObserver, SimObserver};
pub use packet::{Packet, RouteInfo};
pub use routing::{
    Decision, FeedbackMsg, RouterAgent, RouterCtx, RoutingAlgorithm, DEAD_PORT_PENALTY_NS,
};
pub use sync::ShardPlan;
pub use time::SimTime;
pub use workload::{NodeProgram, Op};
