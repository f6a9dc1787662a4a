//! Conservative-parallel synchronisation: the shard plan (who owns which
//! locality domain), the cross-shard mail grid and the window gate that
//! paces the one window loop of [`crate::engine::Engine`].
//!
//! ## The conservative argument
//!
//! Routers are partitioned by **locality domain** (the topology's
//! sharding unit: a Dragonfly group, a fat-tree pod, a HyperX row), and
//! the [`Topology`] contract guarantees every link between routers of
//! different domains has at least the topology's minimum cross-domain
//! latency `L` (`Topology::min_cross_domain_latency` — the global-link
//! latency on all shipped topologies). Every cross-shard interaction — a
//! packet traversing such a link, a credit or an RL feedback message
//! returning across one — is therefore scheduled at least `L` into the
//! future. No null messages, no rollback.
//!
//! ## The window grid and the gate
//!
//! A run is a sequence of *epochs*; an epoch cuts simulated time into a
//! fixed grid of windows `[origin + w·W, origin + (w+1)·W)`, and shard
//! `s` may start window `w` once every shard has finished window
//! `w − lag` ([`WindowGate::gate_open`]: `w < min_completed + lag`). The
//! engine picks `(W, lag)` ([`WindowGate::grid`]); nobody else sets it:
//!
//! * one shard: `(max(L, 1024), 1)` — nothing crosses a shard, so the
//!   window is only the granularity at which injections are fed;
//! * sharded with [`crate::config::EngineConfig::pipeline`] and `L ≥ 2`:
//!   `(L/2, 2)` — a shard may run one window ahead of the slowest;
//! * otherwise `(L, 1)` — lockstep.
//!
//! Mail sent while running window `w` fires at `≥ start(w) + L ≥
//! start(w + lag)`, because `lag · W ≤ L`. Its sender posts it, as the
//! batch of window `w`, before publishing that `w` is finished, and the
//! receiver takes the batches of windows up to `w − lag` at the start of
//! its window `w`, which the gate holds back until every sender has
//! finished `w − lag`. So mail always arrives before the window it fires
//! in. A batch that is already there but not yet due stays in the mailbox:
//! what a shard takes at each of its windows, and so what its queue and
//! arena hold, is the same in every run, however far ahead a sender ran.
//!
//! ## Mail
//!
//! A message costs what its event carries ([`Mail`]): a packet arrival is
//! a 16-byte head beside its 64-byte packet, a credit a head, RL feedback
//! and drop notices records of their own, each kind a column that grows
//! in fixed 4 KiB blocks. A window's outbox moves into the mailbox, and
//! due mail out of it, by swapping blocks, and the receiver frees each
//! block as it delivers it, so an empty outbox or mailbox owns nothing. A
//! sharded run's heap therefore holds the mail in flight and no high-water
//! buffers: one message enum carrying the cache-line-aligned packet by
//! value cost 128 B a message, credits included, kept at its high-water
//! mark three times over (outbox, mailbox, inbox) — 1.05 MB a shard on
//! `ur_ugal_1056`, which made the sharded run's heap peak 16–80 % above the
//! sequential run's.
//!
//! ## One worker per shard, no stealing
//!
//! Worker `s` runs only shard `s`'s windows, in order; the calling thread
//! is worker 0, so a one-shard run spawns nothing. A closed gate is
//! waited out by spinning, then yielding ([`pause`]), which keeps more
//! shards than cores moving, and a worker waiting at the gate takes its
//! next window's injections meanwhile. An epoch ends when every shard is
//! past the run's cap, or when a worker that keeps finding empty windows
//! audits the world and finds nothing to do within a horizon. The audit
//! only `try_lock`s the shards: a running shard means "not quiescent",
//! never a wait.
//!
//! The loop this replaced let an idle worker claim any shard's next
//! window and audited with blocking locks. An auditor then blocked on the
//! shard its peer was running while holding every other shard, which made
//! the peer's claims fail, so the two workers took turns on one core: on
//! a 2-vCPU host, 7 of 10 runs of `ur_ugal_1056 --shards 2 --pipeline`
//! took 0.98–1.39 s with user CPU equal to wall time, against 0.51 s for
//! the other three. A shard per worker has nothing to claim and nothing
//! to steal; the same ten runs now take 0.50–0.53 s on both cores.
//!
//! ## Determinism
//!
//! Mailbox delivery order does not matter: events are totally ordered by a
//! content-derived key (see [`crate::event::event_key`]), so a message
//! sorts into the destination queue exactly where the single-queue engine
//! would have processed it. Injections are handed out by one cursor in
//! injector order and every shard accepts its own in that order, each
//! window's at the start of that window, so `shards = 1` and `shards = N`
//! produce bit-for-bit identical outputs on either grid.

use crate::arena::PacketArena;
use crate::event::{EventKind, EventQueue, Scheduler};
use crate::packet::Packet;
use crate::routing::FeedbackMsg;
use crate::time::SimTime;
use dragonfly_topology::ids::{NodeId, Port, RouterId};
use dragonfly_topology::{AnyTopology, Topology};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Sentinel for "no pending event".
pub const NO_EVENT: SimTime = SimTime::MAX;

/// The window of a one-shard run (unless the lookahead is longer): nothing
/// crosses a shard, so the window only sets how much traffic is fed at a
/// time; coarse enough to amortise the loop.
const SINGLE_SHARD_WINDOW_NS: SimTime = 1024;

/// How routers and nodes are partitioned into shards, plus the lookahead.
///
/// Shards own contiguous, balanced ranges of **locality domains** (the
/// topology-provided sharding unit: Dragonfly groups, fat-tree pods,
/// HyperX rows). Domains occupy contiguous router/node id ranges by the
/// [`Topology`] contract, so a router's shard is one table lookup and all
/// of a shard's state is contiguous.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Number of shards (≥ 1).
    num_shards: usize,
    /// The conservative lookahead window in ns (the topology's minimum
    /// cross-domain link latency).
    lookahead: SimTime,
    /// Domain → shard.
    domain_to_shard: Vec<u16>,
    /// Shard → first domain (plus a trailing total, so `domains_of(i)` is
    /// `domain_start[i]..domain_start[i + 1]`).
    domain_start: Vec<usize>,
    /// Router → shard (dense: domains may differ in router count).
    router_to_shard: Vec<u16>,
}

impl ShardPlan {
    /// Partition `topo` into `num_shards` contiguous domain ranges.
    pub fn new(topo: &AnyTopology, num_shards: usize, lookahead: SimTime) -> Self {
        let domains = topo.num_domains();
        let n = num_shards.clamp(1, domains.max(1));
        assert!(
            n == 1 || lookahead > 0,
            "conservative sharding needs a positive lookahead window"
        );
        let mut domain_to_shard = vec![0u16; domains];
        let mut domain_start = Vec::with_capacity(n + 1);
        for shard in 0..n {
            let start = shard * domains / n;
            domain_start.push(start);
            let end = (shard + 1) * domains / n;
            domain_to_shard[start..end].fill(shard as u16);
        }
        domain_start.push(domains);
        let mut router_to_shard = vec![0u16; topo.num_routers()];
        for (domain, shard) in domain_to_shard.iter().enumerate() {
            router_to_shard[topo.router_range_of_domain(domain)].fill(*shard);
        }
        Self {
            num_shards: n,
            lookahead,
            domain_to_shard,
            domain_start,
            router_to_shard,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The conservative lookahead window (ns).
    #[inline]
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }

    /// The shard owning a locality domain.
    #[inline]
    pub fn shard_of_domain(&self, domain: usize) -> usize {
        self.domain_to_shard[domain] as usize
    }

    /// The shard owning a router.
    #[inline]
    pub fn shard_of_router(&self, router: RouterId) -> usize {
        self.router_to_shard[router.index()] as usize
    }

    /// The contiguous domain range owned by a shard.
    pub fn domains_of(&self, shard: usize) -> std::ops::Range<usize> {
        self.domain_start[shard]..self.domain_start[shard + 1]
    }
}

/// Bytes in one block of a mail column (see [`Blocks`]).
const MAIL_BLOCK_BYTES: usize = 4 * 1024;

/// A list that grows in fixed blocks of [`MAIL_BLOCK_BYTES`], each
/// allocated once at full size, and is only ever appended to and drained
/// whole. Its heap is what it holds plus at most one partly filled block
/// per batch appended to it: no doubling, and nothing kept once drained.
#[derive(Debug)]
struct Blocks<T> {
    blocks: Vec<Vec<T>>,
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Self { blocks: Vec::new() }
    }
}

impl<T> Blocks<T> {
    /// Elements per block (every kind of message is far smaller than a
    /// block).
    const SLOTS: usize = MAIL_BLOCK_BYTES / std::mem::size_of::<T>();

    #[inline]
    fn push(&mut self, value: T) {
        match self.blocks.last_mut() {
            Some(block) if block.len() < block.capacity() => block.push(value),
            _ => {
                let mut block = Vec::with_capacity(Self::SLOTS);
                block.push(value);
                self.blocks.push(block);
            }
        }
    }

    /// Move `other`'s blocks behind this list's: a swap when this list is
    /// empty, never a copy of an element.
    fn append(&mut self, other: &mut Self) {
        if self.blocks.is_empty() {
            std::mem::swap(self, other);
        } else {
            self.blocks.append(&mut other.blocks);
        }
    }

    fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Every element in order, each block freed as soon as it is read.
    fn drain(self) -> impl Iterator<Item = T> {
        self.blocks.into_iter().flatten()
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.blocks
            .iter()
            .map(|b| b.capacity() * size_of::<T>())
            .sum::<usize>()
            + self.blocks.capacity() * size_of::<Vec<T>>()
    }
}

/// Where and when a cross-shard packet or credit fires: 16 B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    time: SimTime,
    router: RouterId,
    port: Port,
    vc: u8,
}

/// A drop notice on its way to the source node's shard (see
/// [`EventKind::DropNotice`]).
#[derive(Debug, Clone, Copy)]
struct DropNote {
    time: SimTime,
    node: NodeId,
    dst: NodeId,
    id: u64,
}

/// Cross-shard mail: one column per kind of message, so each costs what
/// its event carries — a packet arrival is a 16-byte [`Head`] beside its
/// 64-byte [`Packet`], a credit a `Head`, RL feedback its time, router and
/// [`FeedbackMsg`], a drop notice a 24-byte record. Every column grows in
/// fixed blocks and owns nothing once drained.
///
/// Packets travel **by value**: the sender frees its arena slot when the
/// packet leaves the shard and the receiver allocates a fresh slot on
/// delivery, so [`crate::arena::PacketRef`] handles never cross a shard
/// boundary un-translated.
#[derive(Debug, Default)]
pub struct Mail {
    arrivals: Blocks<Head>,
    /// The packets of `arrivals`, in the same order.
    packets: Blocks<Packet>,
    credits: Blocks<Head>,
    feedback: Blocks<(SimTime, RouterId, FeedbackMsg)>,
    drops: Blocks<DropNote>,
}

impl Mail {
    /// A packet arriving at `router`'s input `port` on `vc` at `time`.
    #[inline]
    pub fn push_packet(
        &mut self,
        time: SimTime,
        router: RouterId,
        port: Port,
        vc: u8,
        packet: Packet,
    ) {
        self.arrivals.push(Head {
            time,
            router,
            port,
            vc,
        });
        self.packets.push(packet);
    }

    /// A credit, RL feedback or drop notice firing at `time`.
    ///
    /// # Panics
    ///
    /// On any other kind of event: packets go by [`Mail::push_packet`],
    /// and nothing else crosses a shard.
    #[inline]
    pub fn push_event(&mut self, time: SimTime, kind: EventKind) {
        match kind {
            EventKind::CreditArrive { router, port, vc } => self.credits.push(Head {
                time,
                router,
                port,
                vc,
            }),
            EventKind::RlFeedback { router, msg } => self.feedback.push((time, router, msg)),
            EventKind::DropNotice { node, dst, id } => self.drops.push(DropNote {
                time,
                node,
                dst,
                id,
            }),
            other => unreachable!("{other:?} never crosses a shard"),
        }
    }

    /// Move `other`'s messages behind these (blocks are moved, not copied).
    pub fn append(&mut self, other: &mut Mail) {
        self.arrivals.append(&mut other.arrivals);
        self.packets.append(&mut other.packets);
        self.credits.append(&mut other.credits);
        self.feedback.append(&mut other.feedback);
        self.drops.append(&mut other.drops);
    }

    /// Whether no message is held.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
            && self.credits.is_empty()
            && self.feedback.is_empty()
            && self.drops.is_empty()
    }

    /// Packets held (used for drain accounting).
    pub fn packets(&self) -> usize {
        self.packets.len()
    }

    /// Heap held by the columns in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.arrivals.memory_bytes()
            + self.packets.memory_bytes()
            + self.credits.memory_bytes()
            + self.feedback.memory_bytes()
            + self.drops.memory_bytes()
    }

    /// Push every message into `queue` as the event it carries, packets
    /// into fresh `arena` slots (the handle translation point), freeing
    /// each block as soon as it is read. The order of delivery does not
    /// matter: events sort by content key.
    pub fn deliver(self, arena: &mut PacketArena, queue: &mut EventQueue) {
        for (head, packet) in self.arrivals.drain().zip(self.packets.drain()) {
            let packet = arena.alloc(packet);
            let Head {
                time,
                router,
                port,
                vc,
            } = head;
            queue.push(
                time,
                EventKind::RouterArrive {
                    router,
                    port,
                    vc,
                    packet,
                },
            );
        }
        for Head {
            time,
            router,
            port,
            vc,
        } in self.credits.drain()
        {
            queue.push(time, EventKind::CreditArrive { router, port, vc });
        }
        for (time, router, msg) in self.feedback.drain() {
            queue.push(time, EventKind::RlFeedback { router, msg });
        }
        for DropNote {
            time,
            node,
            dst,
            id,
        } in self.drops.drain()
        {
            queue.push(time, EventKind::DropNotice { node, dst, id });
        }
    }
}

/// One injection queued for a shard's NIC, with its globally assigned
/// packet id (ids are handed out by the coordinator in injector order, so
/// they are independent of the shard count).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QueuedInjection {
    /// Generation time at the source node.
    pub time: SimTime,
    /// Generating node (owned by the receiving shard).
    pub src: NodeId,
    /// Destination node (any shard).
    pub dst: NodeId,
    /// Pre-assigned global packet id.
    pub id: u64,
}

/// The batches one shard has posted to another and the receiver has not
/// taken yet, each with the window it was sent in, in window order.
type Mailbox = Mutex<Vec<(u64, Mail)>>;

/// The `N × N` cross-shard mailbox fabric: one mailbox per `(src, dst)`
/// pair, holding the [`Mail`] of each window the sender has posted and the
/// receiver not yet taken.
///
/// Shard `src` moves its outbox into `boxes[src][dst]` at the end of each
/// window `w`, as the batch of `w`; shard `dst` takes the batches of
/// windows up to `w − lag` at the start of its window `w`, which the gate
/// guarantees have all been posted (see the module docs). Both moves swap
/// blocks, so an empty mailbox owns nothing. A batch posted early waits
/// for its turn even if the receiver could see it: what a shard has taken
/// at each of its windows is then the same in every run, and so is what
/// its queue and arena hold.
#[derive(Debug, Default)]
pub struct MailGrid {
    boxes: Vec<Vec<Mailbox>>,
    /// The heap of the largest batch posted so far, in bytes.
    largest_batch: AtomicUsize,
}

impl MailGrid {
    /// An `n × n` grid of empty mailboxes.
    pub fn new(n: usize) -> Self {
        Self {
            boxes: (0..n)
                .map(|_| (0..n).map(|_| Default::default()).collect())
                .collect(),
            largest_batch: AtomicUsize::new(0),
        }
    }

    /// Move `mail`, sent in window `window`, into the `src → dst` mailbox,
    /// leaving it empty. A sender posts its windows in order.
    pub fn post(&self, src: usize, dst: usize, window: u64, mail: &mut Mail) {
        if !mail.is_empty() {
            self.largest_batch
                .fetch_max(mail.memory_bytes(), Ordering::Relaxed);
            let mut mailbox = self.boxes[src][dst].lock();
            debug_assert!(mailbox.last().is_none_or(|&(w, _)| w < window));
            mailbox.push((window, std::mem::take(mail)));
        }
    }

    /// Take the mail addressed to `dst` that was sent in windows up to
    /// `through`, in ascending sender order.
    pub fn take(&self, dst: usize, through: u64) -> Mail {
        let mut inbox = Mail::default();
        for row in &self.boxes {
            let mut mailbox = row[dst].lock();
            let due = mailbox.partition_point(|&(w, _)| w <= through);
            for (_, mut mail) in mailbox.drain(..due) {
                inbox.append(&mut mail);
            }
            if mailbox.is_empty() {
                *mailbox = Vec::new();
            }
        }
        inbox
    }

    /// Packets currently travelling to `dst` inside mailboxes.
    pub fn packets_bound_for(&self, dst: usize) -> u64 {
        self.boxes
            .iter()
            .map(|row| {
                let mailbox = row[dst].lock();
                mailbox.iter().map(|(_, m)| m.packets() as u64).sum::<u64>()
            })
            .sum()
    }

    /// Whether every mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.boxes.iter().flatten().all(|b| b.lock().is_empty())
    }

    /// Whether no mailbox holds mail addressed to `dst`.
    pub fn is_empty_for(&self, dst: usize) -> bool {
        self.boxes.iter().all(|row| row[dst].lock().is_empty())
    }

    /// The heap of the largest batch one shard has posted to another in
    /// one window so far, in bytes: the same in every run of a partition
    /// and grid, and zero when no mail ever crossed a shard.
    pub fn largest_batch_bytes(&self) -> usize {
        self.largest_batch.load(Ordering::Relaxed)
    }

    /// Heap held by the mail in the grid, in bytes (none between runs: an
    /// empty mailbox owns nothing). Part of the engine's `memory_bytes`
    /// rollup.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.boxes
            .iter()
            .flatten()
            .map(|b| {
                let mailbox = b.lock();
                mailbox.capacity() * size_of::<(u64, Mail)>()
                    + mailbox.iter().map(|(_, m)| m.memory_bytes()).sum::<usize>()
            })
            .sum()
    }
}

/// The window grid of one epoch and each shard's progress through it.
///
/// Window `w` spans `[origin + w·W, origin + (w+1)·W)`, clamped to
/// `t_cap`. Each shard's `completed` counter is its next window index,
/// advanced only by the shard's own worker, so a shard's windows run in
/// order. The gate opens window `w` once every shard has finished window
/// `w − lag` (see the module docs for why that is in time).
#[derive(Debug)]
pub struct WindowGate {
    /// Window length in ns (≥ 1).
    window_ns: SimTime,
    /// How many windows the fastest shard may run ahead of the slowest,
    /// plus one (1 = lockstep).
    lag: u64,
    /// Simulated time of window 0's start (the epoch origin).
    origin: SimTime,
    /// Inclusive simulated-time cap of this run.
    t_cap: SimTime,
    /// Per-shard count of finished windows == next window index to run.
    completed: Vec<AtomicU64>,
    /// Set when the epoch is over (quiescent or capped); workers exit.
    done: AtomicBool,
}

impl WindowGate {
    /// The `(window, lag)` grid for `num_shards` shards and a lookahead of
    /// `lookahead` ns (see the module docs).
    pub fn grid(num_shards: usize, lookahead: SimTime, pipeline: bool) -> (SimTime, u64) {
        if num_shards == 1 {
            (lookahead.max(SINGLE_SHARD_WINDOW_NS), 1)
        } else if pipeline && lookahead >= 2 {
            (lookahead / 2, 2)
        } else {
            (lookahead, 1)
        }
    }

    /// A fresh epoch for `n` shards.
    pub fn new(n: usize, origin: SimTime, window_ns: SimTime, lag: u64, t_cap: SimTime) -> Self {
        assert!(window_ns >= 1, "windows need a positive length");
        assert!(lag >= 1, "the gate needs a positive lag");
        Self {
            window_ns,
            lag,
            origin,
            t_cap,
            completed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            done: AtomicBool::new(false),
        }
    }

    /// Start time of window `w`.
    #[inline]
    pub fn start_of(&self, w: u64) -> SimTime {
        self.origin.saturating_add(w.saturating_mul(self.window_ns))
    }

    /// Inclusive end time of window `w`, clamped to the run cap.
    #[inline]
    pub fn end_incl_of(&self, w: u64) -> SimTime {
        self.start_of(w + 1).saturating_sub(1).min(self.t_cap)
    }

    /// How many windows the fastest shard may run ahead of the slowest,
    /// plus one (1 = lockstep).
    #[inline]
    pub fn lag(&self) -> u64 {
        self.lag
    }

    /// The next window index shard `s` will execute.
    #[inline]
    pub fn next_window(&self, s: usize) -> u64 {
        self.completed[s].load(Ordering::Acquire)
    }

    /// The slowest shard's finished-window count.
    pub fn min_completed(&self) -> u64 {
        self.completed
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .min()
            .unwrap_or(0)
    }

    /// Whether window `w` may start: every shard has finished window
    /// `w − lag`.
    #[inline]
    pub fn gate_open(&self, w: u64) -> bool {
        w < self.min_completed() + self.lag
    }

    /// Whether window `w` lies wholly beyond the run cap (a shard whose
    /// next window is parked has nothing left to do this run).
    #[inline]
    pub fn parked(&self, w: u64) -> bool {
        self.start_of(w) > self.t_cap
    }

    /// Whether every shard's next window is beyond the cap.
    pub fn all_parked(&self) -> bool {
        self.completed
            .iter()
            .all(|c| self.parked(c.load(Ordering::Acquire)))
    }

    /// Publish that shard `s` finished window `w`. Called by shard `s`'s
    /// worker after posting its outboxes — the release pairs with the
    /// acquire in [`WindowGate::gate_open`] to make window-`w` mail
    /// visible before any shard starts `w + lag`.
    #[inline]
    pub fn complete(&self, s: usize, w: u64) {
        debug_assert_eq!(self.completed[s].load(Ordering::Relaxed), w);
        self.completed[s].store(w + 1, Ordering::Release);
    }

    /// Whether the epoch has been declared over.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Declare the epoch over; every worker exits its loop.
    #[inline]
    pub fn finish(&self) {
        self.done.store(true, Ordering::Release);
    }
}

/// Wait a little for another worker: spin, then yield after 512 spins, so
/// a host with fewer cores than shards still makes progress.
#[inline]
pub fn pause(spins: &mut u32) {
    *spins += 1;
    if *spins < 512 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::ids::NodeId;

    #[test]
    fn plan_partitions_domains_contiguously_and_exhaustively() {
        use dragonfly_topology::{Dragonfly, FatTree, FatTreeConfig, HyperX, HyperXConfig};
        let topologies: Vec<AnyTopology> = vec![
            Dragonfly::new(DragonflyConfig::tiny()).into(), // 9 groups
            FatTree::new(FatTreeConfig::tiny()).into(),     // 4 pods
            HyperX::new(HyperXConfig::tiny()).into(),       // 6 rows
        ];
        for topo in &topologies {
            for n in [1, 2, 3, topo.num_domains()] {
                let plan = ShardPlan::new(topo, n, 300);
                assert_eq!(plan.num_shards(), n);
                let mut covered = 0;
                for shard in 0..n {
                    let range = plan.domains_of(shard);
                    for d in range.clone() {
                        assert_eq!(plan.shard_of_domain(d), shard);
                    }
                    covered += range.len();
                }
                assert_eq!(covered, topo.num_domains());
                // Router ownership agrees with domain ownership.
                for r in topo.routers() {
                    let d = topo.domain_of_router(r);
                    assert_eq!(plan.shard_of_router(r), plan.shard_of_domain(d.index()));
                }
            }
        }
    }

    #[test]
    fn plan_clamps_oversized_requests() {
        let topo = AnyTopology::from(dragonfly_topology::Dragonfly::new(DragonflyConfig::tiny()));
        let plan = ShardPlan::new(&topo, 100, 300);
        assert_eq!(plan.num_shards(), 9, "one shard per domain at most");
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn plan_rejects_multi_shard_zero_lookahead() {
        let topo = AnyTopology::from(dragonfly_topology::Dragonfly::new(DragonflyConfig::tiny()));
        ShardPlan::new(&topo, 2, 0);
    }

    /// What `grid` holds for `dst`, delivered: the events in queue order
    /// and the arena the packets landed in.
    fn deliver(grid: &MailGrid, dst: usize) -> (Vec<crate::event::Event>, PacketArena) {
        deliver_through(grid, dst, u64::MAX)
    }

    /// [`deliver`], of the mail sent in windows up to `through`.
    fn deliver_through(
        grid: &MailGrid,
        dst: usize,
        through: u64,
    ) -> (Vec<crate::event::Event>, PacketArena) {
        let (mut arena, mut queue) = (
            PacketArena::new(),
            EventQueue::for_config(&crate::config::EngineConfig::default()),
        );
        grid.take(dst, through).deliver(&mut arena, &mut queue);
        (std::iter::from_fn(|| queue.pop()).collect(), arena)
    }

    fn feedback_msg() -> FeedbackMsg {
        FeedbackMsg {
            packet_id: 7,
            src: NodeId(0),
            dst: NodeId(9),
            dst_router: RouterId(4),
            dst_group: dragonfly_topology::ids::GroupId(1),
            src_slot: 0,
            port: Port(5),
            reward_ns: 10.0,
            downstream_estimate_ns: 20.0,
        }
    }

    fn credit_at(time: SimTime) -> Mail {
        let mut mail = Mail::default();
        let (router, port, vc) = (RouterId(1), Port(2), 0);
        mail.push_event(time, EventKind::CreditArrive { router, port, vc });
        mail
    }

    fn packet_arrive_at(time: SimTime) -> Mail {
        let mut mail = Mail::default();
        let packet = Packet::new(
            &dragonfly_topology::Dragonfly::new(DragonflyConfig::tiny()),
            7,
            NodeId(0),
            NodeId(9),
            0,
        );
        mail.push_packet(time, RouterId(4), Port(1), 0, packet);
        mail
    }

    #[test]
    fn mailboxes_deliver_and_count_packets() {
        let grid = MailGrid::new(2);
        assert_eq!(grid.memory_bytes(), 0);
        let mut out = credit_at(400);
        let msg = feedback_msg();
        out.push_event(
            350,
            EventKind::RlFeedback {
                router: RouterId(1),
                msg,
            },
        );
        out.push_event(
            500,
            EventKind::DropNotice {
                node: NodeId(3),
                dst: NodeId(9),
                id: 11,
            },
        );
        let batch = out.memory_bytes();
        assert_eq!(grid.largest_batch_bytes(), 0);
        grid.post(0, 1, 0, &mut out);
        assert_eq!(grid.largest_batch_bytes(), batch);
        assert!(out.is_empty(), "post moves the batch out");
        assert_eq!(
            out.memory_bytes(),
            0,
            "and leaves the outbox owning nothing"
        );
        assert!(!grid.is_empty());
        assert!(!grid.is_empty_for(1));
        assert!(grid.is_empty_for(0), "nothing is addressed to shard 0");
        assert_eq!(grid.packets_bound_for(1), 0, "no packet queued");
        assert!(grid.memory_bytes() > 0);
        let (events, _) = deliver(&grid, 1);
        let times: Vec<SimTime> = events.iter().map(|e| e.time).collect();
        assert_eq!(times, [350, 400, 500]);
        assert!(
            matches!(events[0].kind, EventKind::RlFeedback { msg, .. } if msg == feedback_msg())
        );
        assert!(matches!(
            events[2].kind,
            EventKind::DropNotice {
                node: NodeId(3),
                id: 11,
                ..
            }
        ));
        assert!(grid.is_empty());
        assert_eq!(grid.memory_bytes(), 0, "a drained mailbox owns nothing");
    }

    #[test]
    fn drained_while_filling_mail_waits_for_the_next_same_parity_drain() {
        // The race every window loop has: shard 1 drains at the start of
        // a window at the same wall-clock moment shard 0 posts. If the
        // drain ran first, the post must sit in the mailbox — counted in
        // transit, neither lost nor duplicated — until the receiver's next
        // drain, which the gate still holds before the mail's window.
        let grid = MailGrid::new(2);
        assert!(deliver(&grid, 1).0.is_empty(), "drain ran first");
        grid.post(0, 1, 3, &mut packet_arrive_at(900)); // racing post
        grid.post(0, 1, 4, &mut packet_arrive_at(950)); // and the next window's
        assert_eq!(grid.packets_bound_for(1), 2, "still counted in transit");
        assert!(!grid.is_empty_for(1));
        // The receiver's window 5 at lag 2 takes window 3's mail only, even
        // though window 4's is already there: what a drain takes does not
        // depend on how far ahead the sender ran.
        let (late, arena) = deliver_through(&grid, 1, 3);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].time, 900);
        assert_eq!(arena.live_count(), 1, "the packet took a receiver slot");
        assert_eq!(grid.packets_bound_for(1), 1);
        let (next, _) = deliver_through(&grid, 1, 4);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].time, 950);
        assert!(grid.is_empty());
        assert_eq!(grid.packets_bound_for(1), 0);
        assert_eq!(grid.memory_bytes(), 0, "a drained mailbox owns nothing");
    }

    #[test]
    fn window_boundary_packets_keep_their_exact_firing_time() {
        // A packet timed exactly on a window edge belongs to the *next*
        // window (windows are half-open). The mailbox layer must preserve
        // the timestamp bit-for-bit so the destination queue sorts it by
        // content key exactly where the sequential engine would.
        let grid = MailGrid::new(3);
        let window = 150; // L/2 for the paper's 300 ns global latency
        let boundary = 4 * window; // start of window 4
        grid.post(2, 0, 2, &mut packet_arrive_at(boundary));
        grid.post(1, 0, 2, &mut credit_at(boundary - 1));
        let (got, _) = deliver(&grid, 0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].time, boundary - 1);
        assert!(matches!(got[0].kind, EventKind::CreditArrive { .. }));
        assert_eq!(got[1].time, boundary);
        assert!(matches!(
            got[1].kind,
            EventKind::RouterArrive {
                router: RouterId(4),
                port: Port(1),
                vc: 0,
                ..
            }
        ));
    }

    #[test]
    fn mail_grows_in_blocks_and_costs_what_it_carries() {
        // A packet arrival costs its 16-byte head and its 64-byte packet, a
        // credit its head: never the 128 B of a message enum that carries a
        // cache-line-aligned packet by value.
        assert_eq!(std::mem::size_of::<Head>(), 16);
        assert_eq!(std::mem::size_of::<DropNote>(), 24);
        // One sender's window, pushed one by one: at most one partly filled
        // block per column, and the block table.
        let mut outbox = Mail::default();
        let packet = Packet::new(
            &dragonfly_topology::Dragonfly::new(DragonflyConfig::tiny()),
            7,
            NodeId(0),
            NodeId(9),
            0,
        );
        for i in 0..3_000 {
            let (router, port, vc) = (RouterId(1), Port(2), 0);
            outbox.push_event(i, EventKind::CreditArrive { router, port, vc });
            outbox.push_packet(i, RouterId(4), Port(1), 0, packet.clone());
        }
        assert_eq!(outbox.packets(), 3_000);
        let carried = 3_000 * (16 + 64 + 16);
        let slack = outbox.memory_bytes() - carried;
        assert!(
            slack <= 3 * (MAIL_BLOCK_BYTES + 1_024),
            "3,000 arrivals and credits carry {slack} B of slack"
        );
    }

    #[test]
    fn the_grid_follows_shards_pipeline_and_lookahead() {
        assert_eq!(WindowGate::grid(1, 300, true), (1024, 1));
        assert_eq!(WindowGate::grid(1, 0, false), (1024, 1));
        assert_eq!(WindowGate::grid(1, 5_000, true), (5_000, 1));
        assert_eq!(WindowGate::grid(4, 300, true), (150, 2));
        assert_eq!(WindowGate::grid(4, 301, true), (150, 2), "2·W ≤ L");
        assert_eq!(WindowGate::grid(4, 300, false), (300, 1));
        assert_eq!(WindowGate::grid(2, 1, true), (1, 1), "L < 2: lockstep");
    }

    #[test]
    fn window_deque_gates_lag_two_windows() {
        let gate = WindowGate::new(3, 1_000, 150, 2, 10_000);
        assert_eq!(gate.start_of(0), 1_000);
        assert_eq!(gate.end_incl_of(0), 1_149);
        assert_eq!(gate.start_of(2), 1_300);
        // Windows 0 and 1 are gate-open from the start (lag 2)...
        assert!(gate.gate_open(0));
        assert!(gate.gate_open(1));
        assert!(!gate.gate_open(2), "window 2 needs everyone past window 0");
        // ...and the gate follows the *slowest* shard.
        gate.complete(0, 0);
        gate.complete(1, 0);
        assert!(!gate.gate_open(2), "shard 2 has not finished window 0");
        gate.complete(2, 0);
        assert!(gate.gate_open(2));
        assert!(!gate.gate_open(3));
        assert_eq!(gate.min_completed(), 1);
        assert_eq!(gate.next_window(0), 1);
    }

    #[test]
    fn window_gate_lag_one_is_lockstep() {
        let gate = WindowGate::new(2, 0, 300, 1, 10_000);
        assert!(gate.gate_open(0));
        assert!(!gate.gate_open(1), "no shard runs ahead in lockstep");
        gate.complete(0, 0);
        assert!(!gate.gate_open(1), "shard 1 has not finished window 0");
        gate.complete(1, 0);
        assert!(gate.gate_open(1));
        assert!(!gate.gate_open(2));
    }

    #[test]
    fn window_deque_parks_at_the_cap() {
        // Cap mid-window: the last runnable window is clamped, the next
        // one is parked.
        let gate = WindowGate::new(1, 0, 100, 1, 250);
        assert_eq!(gate.end_incl_of(2), 250, "clamped to the cap");
        assert!(!gate.parked(2), "window 2 starts at 200 <= cap");
        assert!(gate.parked(3), "window 3 starts at 300 > cap");
        assert!(!gate.all_parked());
        gate.complete(0, 0);
        gate.complete(0, 1);
        gate.complete(0, 2);
        assert!(gate.all_parked());
        assert!(!gate.is_done(), "parking is observed, done is declared");
        gate.finish();
        assert!(gate.is_done());
    }
}
