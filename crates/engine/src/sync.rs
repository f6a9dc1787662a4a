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
//! start(w + lag)`, because `lag · W ≤ L`. Its sender posts it before
//! publishing that `w` is finished, and the receiver drains its whole
//! inbound mail at the start of every window, which the gate holds back
//! until the sender has finished `w`. So mail always arrives before the
//! window it fires in. It may arrive earlier (a drain picks up whatever
//! has been posted, including mail from a sender that is ahead); early
//! delivery is harmless because events sort by content key, never by
//! arrival.
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
//! injector order and every shard accepts its own in that order, so
//! `shards = 1` and `shards = N` produce bit-for-bit identical outputs on
//! either grid.

use crate::packet::Packet;
use crate::routing::FeedbackMsg;
use crate::time::SimTime;
use dragonfly_topology::ids::{Port, RouterId};
use dragonfly_topology::{AnyTopology, Topology};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// A cross-shard message, timestamped with its (future) firing time.
///
/// `RouterArrive` carries the packet **by value**: the sender frees its
/// arena slot when the packet leaves the shard and the receiver allocates
/// a fresh slot on delivery, so [`crate::arena::PacketRef`] handles never
/// cross a shard boundary un-translated.
#[derive(Debug, Clone)]
pub enum ShardMsg {
    /// A packet crossing a global link into another shard.
    RouterArrive {
        /// Firing time at the destination router.
        time: SimTime,
        /// Destination router.
        router: RouterId,
        /// Input port on the destination router.
        port: Port,
        /// Virtual channel of the arrival.
        vc: u8,
        /// The packet itself, extracted from the sender's arena.
        packet: Packet,
    },
    /// A credit returning upstream across a global link.
    CreditArrive {
        /// Firing time at the upstream router.
        time: SimTime,
        /// Upstream router receiving the credit.
        router: RouterId,
        /// Output port of the upstream router the credit belongs to.
        port: Port,
        /// Virtual channel of the credit.
        vc: u8,
    },
    /// RL feedback returning upstream across a global link.
    RlFeedback {
        /// Firing time at the upstream router.
        time: SimTime,
        /// Upstream router whose agent receives the feedback.
        router: RouterId,
        /// The feedback payload.
        msg: FeedbackMsg,
    },
    /// A workload packet was dropped in another shard; the source NIC's
    /// shard decides whether to retransmit (see
    /// [`crate::event::EventKind::DropNotice`]).
    DropNotice {
        /// Firing time at the source node's shard.
        time: SimTime,
        /// The packet's source node (owned by the receiving shard).
        node: dragonfly_topology::ids::NodeId,
        /// The packet's destination node.
        dst: dragonfly_topology::ids::NodeId,
        /// The workload packet id.
        id: u64,
    },
}

impl ShardMsg {
    /// The simulated time at which the message fires.
    pub fn time(&self) -> SimTime {
        match self {
            ShardMsg::RouterArrive { time, .. }
            | ShardMsg::CreditArrive { time, .. }
            | ShardMsg::RlFeedback { time, .. }
            | ShardMsg::DropNotice { time, .. } => *time,
        }
    }

    /// Whether the message carries a packet (used for drain accounting).
    pub fn carries_packet(&self) -> bool {
        matches!(self, ShardMsg::RouterArrive { .. })
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
    pub src: dragonfly_topology::ids::NodeId,
    /// Destination node (any shard).
    pub dst: dragonfly_topology::ids::NodeId,
    /// Pre-assigned global packet id.
    pub id: u64,
}

/// The `N × N` cross-shard mailbox fabric: one buffer per `(src, dst)`
/// pair.
///
/// Shard `src` appends to `boxes[src][dst]` at the end of each window;
/// shard `dst` drains its whole column at the start of each window. A
/// post and a drain of the same box may race; a post that misses a drain
/// waits for the receiver's next one, which the window gate guarantees is
/// still in time (see the module docs).
#[derive(Debug, Default)]
pub struct MailGrid {
    boxes: Vec<Vec<Mutex<Vec<ShardMsg>>>>,
}

impl MailGrid {
    /// An `n × n` grid of empty mailboxes.
    pub fn new(n: usize) -> Self {
        Self {
            boxes: (0..n)
                .map(|_| (0..n).map(|_| Default::default()).collect())
                .collect(),
        }
    }

    /// Append `msgs` to the `src → dst` mailbox (cheap vector splice).
    pub fn post(&self, src: usize, dst: usize, msgs: &mut Vec<ShardMsg>) {
        if !msgs.is_empty() {
            self.boxes[src][dst].lock().append(msgs);
        }
    }

    /// Take everything addressed to `dst`, in ascending sender order,
    /// appending into a caller-provided buffer so a shard's inbox buffer
    /// is reused across windows instead of allocated per drain.
    pub fn collect_into(&self, dst: usize, out: &mut Vec<ShardMsg>) {
        for row in &self.boxes {
            out.append(&mut row[dst].lock());
        }
    }

    /// Packets currently travelling to `dst` inside mailboxes.
    pub fn packets_bound_for(&self, dst: usize) -> u64 {
        self.boxes
            .iter()
            .map(|row| {
                row[dst]
                    .lock()
                    .iter()
                    .filter(|m| m.carries_packet())
                    .count() as u64
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

    /// Heap footprint of the grid in bytes: the retained capacity of
    /// every mailbox (a mailbox keeps its high-water mark between
    /// windows). Part of the engine's `memory_bytes` rollup.
    pub fn memory_bytes(&self) -> usize {
        self.boxes
            .iter()
            .flatten()
            .map(|b| b.lock().capacity() * std::mem::size_of::<ShardMsg>())
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

    fn collect(grid: &MailGrid, dst: usize) -> Vec<ShardMsg> {
        let mut out = Vec::new();
        grid.collect_into(dst, &mut out);
        out
    }

    #[test]
    fn mailboxes_deliver_and_count_packets() {
        let grid = MailGrid::new(2);
        let mut out = vec![
            ShardMsg::CreditArrive {
                time: 400,
                router: RouterId(1),
                port: Port(2),
                vc: 0,
            },
            ShardMsg::RlFeedback {
                time: 350,
                router: RouterId(1),
                msg: FeedbackMsg {
                    packet_id: 7,
                    src: NodeId(0),
                    dst: NodeId(9),
                    dst_router: RouterId(4),
                    dst_group: dragonfly_topology::ids::GroupId(1),
                    src_slot: 0,
                    port: Port(5),
                    reward_ns: 10.0,
                    downstream_estimate_ns: 20.0,
                },
            },
        ];
        grid.post(0, 1, &mut out);
        assert!(out.is_empty(), "post splices the batch out");
        assert!(!grid.is_empty());
        assert!(!grid.is_empty_for(1));
        assert!(grid.is_empty_for(0), "nothing is addressed to shard 0");
        assert_eq!(grid.packets_bound_for(1), 0, "no RouterArrive queued");
        assert_eq!(collect(&grid, 1).len(), 2);
        assert!(grid.is_empty());
    }

    fn credit_at(time: SimTime) -> ShardMsg {
        ShardMsg::CreditArrive {
            time,
            router: RouterId(1),
            port: Port(2),
            vc: 0,
        }
    }

    fn packet_arrive_at(time: SimTime) -> ShardMsg {
        ShardMsg::RouterArrive {
            time,
            router: RouterId(4),
            port: Port(1),
            vc: 0,
            packet: Packet::new(
                &dragonfly_topology::Dragonfly::new(DragonflyConfig::tiny()),
                7,
                NodeId(0),
                NodeId(9),
                0,
            ),
        }
    }

    #[test]
    fn drained_while_filling_mail_waits_for_the_next_same_parity_drain() {
        // The race every window loop has: shard 1 drains at the start of
        // a window at the same wall-clock moment shard 0 posts. If the
        // drain ran first, the post must sit in the mailbox — counted in
        // transit, neither lost nor duplicated — until the receiver's next
        // drain, which the gate still holds before the mail's window.
        let grid = MailGrid::new(2);
        assert!(collect(&grid, 1).is_empty(), "drain ran first");
        grid.post(0, 1, &mut vec![packet_arrive_at(900)]); // racing post
        assert_eq!(grid.packets_bound_for(1), 1, "still counted in transit");
        assert!(!grid.is_empty_for(1));
        let late = collect(&grid, 1); // the next drain
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].time(), 900);
        assert!(grid.is_empty());
        assert_eq!(grid.packets_bound_for(1), 0);
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
        grid.post(2, 0, &mut vec![packet_arrive_at(boundary)]);
        grid.post(1, 0, &mut vec![credit_at(boundary - 1)]);
        let got = collect(&grid, 0);
        assert_eq!(got.len(), 2);
        // Ascending sender order: shard 1's credit, then shard 2's packet.
        assert_eq!(got[0].time(), boundary - 1);
        assert_eq!(got[1].time(), boundary);
        assert!(got[1].carries_packet());
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
