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
//! * **NICs** hold an unbounded backlog per compute node (offered load
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
//!   the fabric ever schedules; 2,048 ticks with the paper's constants)
//!   plus a binary-heap overflow level for the rare far-future event. Push
//!   and pop are O(1) amortised instead of the binary heap's O(log n), and
//!   pops walk a compact occupancy bitmap instead of chasing a heap. It is
//!   the only queue the engine runs ([`event::EventQueue`]); a plain
//!   `BinaryHeap` survives as the oracle its unit tests compare pop order
//!   and payloads against.
//! * **Packets** live in a slab-style [`arena::PacketArena`] from
//!   injection to delivery *within a shard*; events and router buffers
//!   move 4-byte [`arena::PacketRef`] handles instead of boxed packets, so
//!   a fabric hop performs no heap allocation and no pointer chase. NIC
//!   backlogs hold no packets and no handles: a queued message is a
//!   24-byte record ([`nic`]) until it is injected.
//!
//! Both cost what is in flight, in heap as well as in time
//! (`crates/engine/tests/hot_path_heap.rs` pins each count below):
//!
//! * **A bucket is an unsorted `Vec`, sorted once.** Pushes to a future
//!   tick append; the first pop that targets a bucket sorts it descending
//!   by `(key, seq)` so later pops take from the back. Only events pushed
//!   *at* the tick being drained — same-tick work generated by the
//!   dispatch loop — go to a small min-heap instead, because a positional
//!   insert into the sorted bucket is a memmove per push, quadratic in the
//!   tick population at scale. The pop order is the exact
//!   `(time, key, seq)` total order the determinism contract requires.
//! * **The queue stores 40-byte entries, and a bucket owns a buffer only
//!   while its tick holds events.** The public [`event::Event`] is 80 B
//!   (its `RlFeedback` kind carries a 48-byte message by value); the queue
//!   keeps `(time, key, seq)` and a 12-byte compact kind, with the three
//!   fat kinds in a side slab, and expands on pop. The pop that empties a
//!   bucket frees its buffer. When buckets kept their buffers,
//!   `ur_ugal_1056` (~408 events per tick) grew all 2,048 of them to
//!   capacity 512: 2,048 × 512 × 80 B = 84 MB of that run's 98 MB heap
//!   peak, for ~29,000 pending events that now take 2.1 MB. Nothing is
//!   pre-sized from the entity count any more
//!   (`EventQueue::for_config_with_entities` is `for_config`).
//! * **The arena grows by 1,024-packet chunks (64 KB) and never moves a
//!   packet.** One contiguous `Vec<Packet>` doubled: at the 262,144th
//!   queued packet of `adv_qadp_1056` (when the arena still held the NIC
//!   backlog) the old 27.3 MB and the new 54.5 MB block were live
//!   together, 82 MB of that run's 112 MB peak, and the exact-length `Vec`
//!   of a restored arena made the first packet after every resume copy all
//!   of it again. Slot numbering and the LIFO free list are unchanged; the
//!   free list is threaded through the freed slots and owns no memory.
//! * **A queued message is a 24-byte record, not a packet** ([`nic`]):
//!   `{id, created_ns, dst, next}` in one per-shard pool of 1,024-record
//!   chunks, every NIC's FIFO threaded through it, freed records reused
//!   LIFO; a NIC is 48 bytes with the FIFO's head, tail and length. The
//!   packet is built at injection — everything else in it derives from the
//!   NIC and the topology. `adv_qadp_1056`'s arena held 41.4 MB of 104-byte
//!   packets, nearly all of it backlog, and its heap peak was 57.9 MB; with
//!   the backlog as records the arena held 7.5 MB and the backlog 8.5 MB.
//!   Snapshots carry the records too, as three columns.
//! * **A packet is one cache line** ([`packet`]): 64 bytes aligned to 64,
//!   where it was 104 bytes over two or three lines. It keeps its times,
//!   ids, packed route state and the two Q-table indices every decision
//!   reads; `src_router`, `src_group` and the size derive from `src` and
//!   the configuration. `adv_qadp_1056`'s arena went 7.5 → 4.5 MB (seed
//!   21, end of run). Snapshots store the 14 fields a packet cannot
//!   derive, one column each ([`checkpoint::ArenaCheckpoint`]).
//! * **A router is two flat arrays and a link pool** ([`router`]): one
//!   24-byte cell per `(port, vc)` (both FIFOs as head/tail indices,
//!   output length, credits, wait-list link), one 24-byte record per port,
//!   and 8-byte links reused LIFO. A fresh radix-51, 5-VC router owns
//!   7,344 B where 561 `VecDeque`s and nine parallel `Vec`s took ~21.7 KB
//!   — 6,936 × 21.7 KB = 151 MB of the 110,976-node workload's 196 MB
//!   heap peak, cloned again by every snapshot. Snapshots keep the old
//!   layout as their wire form, byte for byte.
//! * **Mail costs what is in flight** ([`sync::Mail`]): one column per
//!   kind of message (a 16-byte head beside each 64-byte packet, a head per
//!   credit, records for feedback and drop notices), grown in fixed 4 KiB
//!   blocks that move from outbox to mailbox to receiver by swap and are
//!   freed as they are delivered. Three buffers of 128-byte messages kept
//!   at their high-water mark made a sharded run's heap 16–80 % larger
//!   than the sequential run's; now it is within a few per cent either
//!   way, and sharding is the default.
//!
//! [`engine::Engine::memory_breakdown`] says where the heap is — tables,
//! arena, NIC backlog, event queues, router state, NIC state, mailboxes,
//! task programs, observers — and
//! `qadaptive-cli run` prints it on stderr under its `perf:` line.
//!
//! ## Sharded execution: one window loop
//!
//! One simulation runs across the host's cores, by default one shard per
//! available CPU ([`config::ShardKind`], `Auto`):
//! routers are partitioned by **locality domain** — the topology's
//! sharding unit: Dragonfly groups, fat-tree pods (plus their slice of
//! the core switches), HyperX rows — into shards ([`sync::ShardPlan`]).
//! The [`dragonfly_topology::Topology`] contract guarantees each domain
//! is a contiguous router/node id range and that every link between
//! routers of different domains carries at least the **lookahead** `L =
//! Topology::min_cross_domain_latency` (the global-link latency on all
//! shipped topologies), the minimum delay of any cross-shard interaction
//! (packet over a cross-domain link, returning credit, RL feedback). Each
//! shard owns its own calendar queue, packet arena and observer clone
//! ([`shard::Shard`]); cross-shard events travel through one mailbox per
//! shard pair ([`sync::MailGrid`]), packets **by value**, so a `PacketRef`
//! is never dereferenced outside the arena that issued it. Within a
//! window every shard runs lock-free; no null messages and no rollback
//! are needed (bounded-window conservative PDES, the scheme SST/Merlin
//! uses to pace its partitions).
//!
//! Every shard count runs the same loop ([`engine`]): epochs over a fixed
//! window grid `(W, lag)` that the engine picks ([`sync::WindowGate`]),
//! one worker per shard, the calling thread being worker 0. Shard `s` may
//! start window `w` once every shard has finished window `w − lag`; mail
//! sent in window `w` fires at or after the start of window `w + lag`
//! (`lag · W ≤ L`), and every window `w` starts by taking the shard's mail
//! of windows up to `w − lag`, so mail is always in time — and taken at the
//! same window in every run.
//!
//! * One shard: `(max(L, 1024), 1)`. The window only sets how much
//!   traffic is fed at a time; no thread is spawned.
//! * Sharded, [`config::EngineConfig::pipeline`] on and `L ≥
//!   2`: `(L/2, 2)`. A shard may run one window ahead of the slowest, so
//!   one shard's compute overlaps its neighbours' compute and mail.
//! * Otherwise `(L, 1)`: lockstep, the default, because its heap peak
//!   repeats from run to run; on the half-window grid the mail in flight
//!   depends on how far one shard ran ahead.
//!
//! **No work stealing.** Worker `s` runs only shard `s`'s windows, in
//! order; a closed gate is waited out by spinning, then yielding, and a
//! worker that waits feeds its next window meanwhile, which keeps the one
//! injection cursor off the critical path. The loop this replaced let an
//! idle worker claim any shard's ready window and ended epochs with a
//! blocking audit; an auditor blocked on the shard its peer was running
//! while holding all the others, so the two workers alternated on one
//! core. On a 2-vCPU Xeon at 2.1 GHz, `ur_ugal_1056 --shards 2
//! --pipeline` took 0.98–1.39 s in 7 of 10 runs with user CPU equal to
//! wall time, 0.51 s in the other three; with a shard per worker and an
//! audit that only `try_lock`s, all ten took 0.50–0.53 s on both cores.
//! At `--shards 4 --pipeline` on the same host the same ten seeds went
//! from 0.60–1.00 s to 0.53–0.65 s.
//!
//! **Why determinism survives.** Events are totally ordered by the
//! content-derived key (next paragraph), so *when* a cross-shard message
//! is merged into the destination queue — at the window it fires in or
//! earlier — cannot change the order in which events are processed, only
//! where in the queue the message briefly waits. Combined with packet ids
//! assigned by one feeder cursor in injector order, and every shard
//! accepting its own injections in that order, `shards = 1` and `shards =
//! N` are bit-for-bit identical on every grid (pinned by the mode
//! matrices, `tests/mode_matrix/` here and in `dragonfly-sim`, which run
//! every case at every shard count on both grids).
//!
//! **Determinism contract:** events are totally ordered by
//! `(time, key, seq)` where `key` is a *content-derived* priority
//! ([`event::event_key`]: event class + targeted entity + packet id) and
//! `seq` (assigned at push) only breaks ties between identical events.
//! Because the key does not depend on push order, a cross-shard event
//! sorts into the destination queue exactly where the single-queue engine
//! would have processed it, making **every shard count bit-for-bit
//! identical** — `shards = 1` vs `shards = N` is pinned by the engine's
//! mode matrix down to the final checkpoint. Arena slot and backlog record
//! assignment recycle through per-shard LIFO free lists and packet ids
//! are assigned by the coordinator in injector order, so none of them
//! introduces run-to-run or across-shard-count variation.
//!
//! The engine is deterministic for a fixed seed, traffic injector and
//! routing algorithm — independent of shard count, window grid and thread
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
//! of exact sample stores.
//!
//! ## Closed-loop task programs (delivery-triggered wakeups)
//!
//! Besides open-loop injector traffic, every node can run a task program
//! ([`workload::NodeProgram`]: straight-line runs and loops of
//! [`workload::Op`]s — compute delays, asynchronous sends, counting
//! receives, phase markers) installed via
//! [`engine::Engine::install_workload`]. A loop is one body however often
//! it runs, and a task's position is its index in the unrolled program.
//! Execution is *closed-loop*: a `Recv` op blocks its node until the
//! network has actually delivered the counted messages, so generation
//! reacts to backpressure instead of following a rate.
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
//!   channel, no lookahead interaction, and epochs planned from
//!   `next_local_time()` see task events automatically at every shard
//!   count.
//! * Workload sends post packets at the node's own NIC through the same
//!   generation path as injector traffic, with ids from a disjoint
//!   deterministic namespace ([`workload::workload_packet_id`]: source
//!   node + per-node sequence), so id assignment cannot depend on which
//!   shard executes a window first.
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
//! the shard count or window grid and the determinism contract above
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
//! The engine can snapshot its complete mutable state between runs at
//! **any shard count and window grid**
//! ([`engine::Engine::checkpoint`] / [`engine::Engine::restore`], state
//! shapes in [`checkpoint`]): router buffers, the fabric packets as
//! columns, the NIC backlog as records, the pending event set *with its
//! sequence counters* (so tie-breaks replay identically), fault cursor,
//! task counters, agent RNG/Q-table state and the injector position. A
//! snapshot stores state, not derivations: no field the topology gives,
//! no packet for a message that has not been injected, no compiled
//! program (a snapshot of a closed-loop job does not grow with its repeat
//! count). Snapshots are taken
//! between runs, which is a globally consistent cut (a run delivers all
//! cross-shard mail before it returns), and are written in one walk over
//! the shards in a canonical **single-shard-equivalent form**, the same
//! bytes whatever the partition that produced it: a checkpoint taken at
//! `shards = N` restores onto an engine running `shards = M` for any `M`,
//! pipeline on or off. Restore
//! reads the canonical form in place: each shard takes its share straight
//! from the borrowed snapshot and writes it into the fresh engine's own
//! routers, agent tables, NICs, backlog, queue and arena, and a task keeps
//! the program compiled from the spec and takes the saved counters, so a
//! restore holds the snapshot and the engine, never a copy of either.
//! Restoring into a freshly built engine resumes **bit-for-bit**: the
//! resumed run is indistinguishable from the uninterrupted one, which
//! the split cells of both mode matrices pin — a snapshot taken in one
//! execution mode and resumed in another — at equality of the report, the
//! final snapshot and the time series, on all three fabrics.
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
pub use engine::{Engine, EngineStats, MemoryBreakdown, ShardDrain};
pub use fault::{CompiledFault, FaultOp, FaultSchedule};
pub use injector::{Injection, TrafficInjector};
pub use observer::{ShardObserver, SimObserver};
pub use packet::{Packet, RouteMode, Via};
pub use routing::{
    Decision, FeedbackMsg, RouterAgent, RouterCtx, RoutingAlgorithm, DEAD_PORT_PENALTY_NS,
};
pub use sync::ShardPlan;
pub use time::SimTime;
pub use workload::{NodeProgram, Op};
