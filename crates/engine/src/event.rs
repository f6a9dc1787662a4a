//! The discrete-event scheduler.
//!
//! Events are ordered by `(time, key, seq)`:
//!
//! * `time` — the firing time in ns.
//! * `key` — a **content-derived priority** computed by [`event_key`] from
//!   the event kind and the entity it targets (event class, router/node,
//!   port, VC, packet id). Two *different* events scheduled for the same
//!   nanosecond therefore have a total order that does not depend on when
//!   or where they were pushed.
//! * `seq` — a per-queue push counter breaking ties between *identical*
//!   events (same time, same key ⇒ byte-identical payload up to the packet
//!   handle), whose relative order cannot affect simulation results.
//!
//! The content-derived key is what makes the sharded engine deterministic:
//! a cross-shard event arrives through a mailbox and is pushed into the
//! destination shard's queue long after the locally generated events it
//! races with, yet it sorts into exactly the same position the global
//! single-queue engine would have given it. `shards = 1` and `shards = N`
//! therefore pop identical per-shard event sequences — see
//! `tests/mode_matrix/mod.rs`.
//!
//! [`EventQueue`] is a [`CalendarQueue`]: a two-level calendar/bucket
//! queue with a power-of-two wheel of 1 ns buckets for near-future events
//! plus a binary-heap overflow level for the rare far-future event. Every
//! bucket holds events of exactly one nanosecond; buckets are sorted by
//! `(key, seq)` lazily when first popped from, so pushes stay O(1)
//! amortised.
//!
//! ## What the queue stores, and what that costs
//!
//! The queue's heap follows the events *in flight*, not the wheel's width
//! times the busiest tick it has ever seen:
//!
//! * **Entry vs [`Event`].** [`Event`] (80 B: [`EventKind`] is 56 B because
//!   `RlFeedback` carries a 48-byte [`FeedbackMsg`] by value) is what
//!   [`Scheduler::pop`] returns and what [`SchedulerCheckpoint`] stores —
//!   the wire form. Inside the queue an event is a private 40-byte entry:
//!   `(time, key, seq)` plus a 12-byte compact kind. The nine small kinds
//!   are held inline; the three fat ones (`RlFeedback`, `DropNotice`,
//!   `NicResend`) as a `u32` index into a queue-owned **side slab** of
//!   `EventKind`s with a LIFO free list, filled on push, read back (and
//!   the slot freed) on pop, read without freeing when a checkpoint
//!   lists the pending events. Slab indices never leave the queue, so
//!   they cannot influence the pop order or a snapshot. What the second
//!   type buys was measured against this same queue holding `Event`s (ten
//!   rotating triples per benchmark workload): hardly any heap once empty
//!   buckets own nothing (1.2 MB of a 16.8 MB peak on `ur_ugal_1056`), but
//!   14 % of that workload's `setup_s` and `run_s`, in 9 of 10 pairs each
//!   — a tick's buffer now regrows from nothing every revolution and is
//!   sorted while hot, so the bytes a doubling copies and a sort swaps are
//!   time again. Nothing resolved on the other three workloads.
//! * **Buckets own a buffer only while their tick holds events.** The pop
//!   that empties a bucket frees its `Vec`; the first push into an empty
//!   bucket starts a new one. Invariant: *a bucket with capacity holds
//!   events*. A buffer is at most twice its tick's events (`Vec`
//!   doubling, from four), so the wheel's heap is at most twice the
//!   entries pending in it plus the fixed 2,048-header bucket table
//!   (49 KB) — whatever the wheel's width and however busy a tick once
//!   was. Buckets that kept their buffers made `ur_ugal_1056` (~408
//!   events per tick, every one of the 2,048 buckets grown to capacity
//!   512) hold 2,048 × 512 × 80 B = 84 MB for ~29,000 pending events; the
//!   same events now sit in 2.1 MB.
//! * **The allocator is the buffer pool.** Recycling emptied buffers
//!   through a queue-owned LIFO pool was built and measured first, and
//!   lost: a pooled buffer keeps the capacity of the busiest tick it ever
//!   served, and the sequential run loop files 1,024 ns of
//!   `TrafficArrival` markers ahead, so 1,024 full-size buffers stayed in
//!   circulation — most of them under ticks holding sixteen markers.
//!   Pooled: 21.5 MB of queue and a 35.0 MB heap peak on `ur_ugal_1056`;
//!   freed on empty: 2.1 MB and 15.7 MB, that workload's `run_s` about 15 %
//!   lower again (the working set shrinks with the heap) and the other
//!   three workloads' timings inside their run-to-run noise. The system
//!   allocator's size-class bins hand a freed 20 KB block to the next
//!   bucket growing to that size, which is the reuse the pool was for.
//! * Entries keep `time` although a bucket holds one tick: dropping it
//!   (32 B) would need a second entry type for the same-tick and overflow
//!   heaps and save a fifth of 2.1 MB. One 40-byte type it is.
//!
//! The [`Scheduler`] trait states the ordering contract. The unit tests
//! hold the calendar queue to it against a plain `BinaryHeap<Event>`
//! oracle, on hand-written cases and on a randomised engine-shaped event
//! stream of all twelve kinds with a checkpoint/restore in the middle,
//! comparing payloads as well as order.

use crate::arena::PacketRef;
use crate::config::EngineConfig;
use crate::routing::FeedbackMsg;
use crate::time::SimTime;
use dragonfly_topology::ids::{NodeId, Port, RouterId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
///
/// All variants are small and `Copy`: packets are not carried by value but
/// as 4-byte [`PacketRef`] handles into the owning shard's
/// [`crate::arena::PacketArena`], so moving an event never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// The next queued traffic injection of this shard is due: materialise
    /// the packet at its source NIC. The injection itself (src, dst,
    /// pre-assigned packet id) waits in the shard's FIFO injection queue;
    /// this event is just the timed marker that pops it.
    TrafficArrival,
    /// A NIC should (re)try pushing the head of its source queue into its
    /// router's host input buffer.
    NicTryInject { node: NodeId },
    /// A credit for the host input buffer came back to the NIC.
    NicCredit { node: NodeId },
    /// A packet finished traversing a link and lands in the input buffer
    /// `(port, vc)` of `router`.
    RouterArrive {
        router: RouterId,
        port: Port,
        vc: u8,
        packet: PacketRef,
    },
    /// The head packet of input buffer `(port, vc)` of `router` attempts
    /// switch traversal (routing decision + move to an output queue).
    SwitchAttempt {
        router: RouterId,
        port: Port,
        vc: u8,
    },
    /// Output port `port` of `router` attempts to serialise a packet onto
    /// its outgoing link.
    OutputAttempt { router: RouterId, port: Port },
    /// A credit for `(port, vc)` returned to `router` from its downstream
    /// neighbour.
    CreditArrive {
        router: RouterId,
        port: Port,
        vc: u8,
    },
    /// Reinforcement-learning feedback delivered to the agent of `router`.
    RlFeedback { router: RouterId, msg: FeedbackMsg },
    /// A closed-loop task program of `node` should (re)evaluate its
    /// current op: fired at `t = 0` to start the program and at the end
    /// of every `Compute` delay.
    TaskWake { node: NodeId },
    /// One workload message from `src` was delivered to `node`'s NIC:
    /// bump the per-source receive counter and re-evaluate a blocked
    /// `Recv`. Delivery always happens in the shard that owns `node`
    /// (host ports never cross shards), so this event is always local.
    TaskRecv { node: NodeId, src: NodeId },
    /// A fault dropped the in-flight workload packet `id` (destination
    /// `dst`); delivered to the shard owning source `node` one lookahead
    /// after the drop so it may cross shard boundaries. The NIC decides
    /// whether to retransmit or give up.
    DropNotice { node: NodeId, dst: NodeId, id: u64 },
    /// A scheduled retransmission: materialise a fresh packet (same
    /// workload id, destination `dst`) in `node`'s NIC source queue.
    NicResend { node: NodeId, dst: NodeId, id: u64 },
}

// Event classes, most-urgent-first within a nanosecond. The relative order
// is arbitrary but frozen: changing it changes (deterministically) which
// same-tick event wins contended resources.
const CLASS_TRAFFIC: u64 = 0;
const CLASS_NIC_CREDIT: u64 = 1;
const CLASS_NIC_TRY: u64 = 2;
const CLASS_ROUTER_ARRIVE: u64 = 3;
const CLASS_SWITCH: u64 = 4;
const CLASS_OUTPUT: u64 = 5;
const CLASS_CREDIT: u64 = 6;
const CLASS_FEEDBACK: u64 = 7;
const CLASS_TASK_WAKE: u64 = 8;
const CLASS_TASK_RECV: u64 = 9;
const CLASS_DROP_NOTICE: u64 = 10;
const CLASS_NIC_RESEND: u64 = 11;

/// The content-derived priority of an event (see the module docs).
///
/// Layout: `class` in the top 4 bits, then the targeted entity. Within one
/// nanosecond the key uniquely identifies every event whose processing
/// order can matter:
///
/// * per-entity events (`NicCredit`, `RouterArrive`, ...) are keyed by the
///   entity, and two *distinct* same-key events at the same time are
///   necessarily byte-identical (e.g. two `NicCredit { node }` — their
///   mutual order is irrelevant);
/// * `RlFeedback` additionally keys on the packet id (a router can receive
///   feedback about several packets in the same nanosecond, and Q-table
///   updates do not commute).
pub fn event_key(kind: &EventKind) -> u64 {
    #[inline]
    fn entity(router: RouterId, port: Port, vc: u8) -> u64 {
        ((router.0 as u64) << 24) | ((port.0 as u64) << 8) | vc as u64
    }
    match *kind {
        EventKind::TrafficArrival => CLASS_TRAFFIC << 60,
        EventKind::NicCredit { node } => (CLASS_NIC_CREDIT << 60) | node.0 as u64,
        EventKind::NicTryInject { node } => (CLASS_NIC_TRY << 60) | node.0 as u64,
        EventKind::RouterArrive {
            router, port, vc, ..
        } => (CLASS_ROUTER_ARRIVE << 60) | entity(router, port, vc),
        EventKind::SwitchAttempt { router, port, vc } => {
            (CLASS_SWITCH << 60) | entity(router, port, vc)
        }
        EventKind::OutputAttempt { router, port } => (CLASS_OUTPUT << 60) | entity(router, port, 0),
        EventKind::CreditArrive { router, port, vc } => {
            (CLASS_CREDIT << 60) | entity(router, port, vc)
        }
        EventKind::RlFeedback { router, ref msg } => {
            (CLASS_FEEDBACK << 60)
                | (((router.0 as u64) & 0xFF_FFFF) << 36)
                | (msg.packet_id & 0xF_FFFF_FFFF)
        }
        EventKind::TaskWake { node } => (CLASS_TASK_WAKE << 60) | node.0 as u64,
        // Keyed by `(node, src)`: a node can receive messages from many
        // sources in the same nanosecond. Two same-key `TaskRecv`s are
        // identical commutative "+1" counter bumps, so `seq` may break
        // their tie.
        EventKind::TaskRecv { node, src } => {
            (CLASS_TASK_RECV << 60) | ((node.0 as u64) << 28) | src.0 as u64
        }
        // Keyed by `(source node, packet id)`: a packet id is dropped at
        // most once per flight, so the key is unique within a nanosecond.
        EventKind::DropNotice { node, id, .. } => {
            (CLASS_DROP_NOTICE << 60) | (((node.0 as u64) & 0x0FFF_FFFF) << 32) | (id & 0xFFFF_FFFF)
        }
        EventKind::NicResend { node, id, .. } => {
            (CLASS_NIC_RESEND << 60) | (((node.0 as u64) & 0x0FFF_FFFF) << 32) | (id & 0xFFFF_FFFF)
        }
    }
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Event {
    /// Firing time in ns.
    pub time: SimTime,
    /// Content-derived priority (see [`event_key`]).
    pub key: u64,
    /// Push-order tie-break between identical events.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// The event's place in the total order: `(time, key, seq)`.
    #[inline]
    pub(crate) fn order(&self) -> (SimTime, u64, u64) {
        (self.time, self.key, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other.order().cmp(&self.order())
    }
}

/// A deterministic min-queue of events keyed on `(time, key, seq)`.
///
/// Implementations must pop events in strictly increasing
/// `(time, key, seq)` order, assign `seq` in push order, and may assume
/// pushes never schedule earlier than the last popped time (the engine's
/// arrow of time).
pub trait Scheduler {
    /// Schedule `kind` to fire at `time`.
    fn push(&mut self, time: SimTime, kind: EventKind);

    /// Remove and return the earliest event, if any.
    fn pop(&mut self) -> Option<Event>;

    /// Remove and return the earliest event if its time is `<= t_end`;
    /// leave the queue untouched otherwise. The single-scan primitive the
    /// engine's run loop is built on.
    fn pop_before(&mut self, t_end: SimTime) -> Option<Event>;

    /// Time of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far (for performance reporting).
    fn processed(&self) -> u64;
}

/// [`EventKind`] as the queue stores it: the nine small kinds inline, the
/// three fat ones as an index into the queue's [`FatSlab`]. 12 bytes.
#[derive(Debug, Clone, Copy)]
enum CompactKind {
    TrafficArrival,
    NicTryInject {
        node: NodeId,
    },
    NicCredit {
        node: NodeId,
    },
    RouterArrive {
        router: RouterId,
        port: Port,
        vc: u8,
        packet: PacketRef,
    },
    SwitchAttempt {
        router: RouterId,
        port: Port,
        vc: u8,
    },
    OutputAttempt {
        router: RouterId,
        port: Port,
    },
    CreditArrive {
        router: RouterId,
        port: Port,
        vc: u8,
    },
    TaskWake {
        node: NodeId,
    },
    TaskRecv {
        node: NodeId,
        src: NodeId,
    },
    /// `RlFeedback`, `DropNotice` or `NicResend`, held in this slab slot.
    Fat(u32),
}

/// Side storage for the event kinds too large for a [`CompactKind`]: a
/// slab with a LIFO free list, so it grows to the largest number of fat
/// events ever pending at once and then stops allocating.
#[derive(Debug, Default)]
struct FatSlab {
    slots: Vec<EventKind>,
    free: Vec<u32>,
}

impl FatSlab {
    /// The stored form of `kind`, claiming a slab slot if it is a fat one.
    fn pack(&mut self, kind: EventKind) -> CompactKind {
        match kind {
            EventKind::TrafficArrival => CompactKind::TrafficArrival,
            EventKind::NicTryInject { node } => CompactKind::NicTryInject { node },
            EventKind::NicCredit { node } => CompactKind::NicCredit { node },
            EventKind::RouterArrive {
                router,
                port,
                vc,
                packet,
            } => CompactKind::RouterArrive {
                router,
                port,
                vc,
                packet,
            },
            EventKind::SwitchAttempt { router, port, vc } => {
                CompactKind::SwitchAttempt { router, port, vc }
            }
            EventKind::OutputAttempt { router, port } => {
                CompactKind::OutputAttempt { router, port }
            }
            EventKind::CreditArrive { router, port, vc } => {
                CompactKind::CreditArrive { router, port, vc }
            }
            EventKind::TaskWake { node } => CompactKind::TaskWake { node },
            EventKind::TaskRecv { node, src } => CompactKind::TaskRecv { node, src },
            EventKind::RlFeedback { .. }
            | EventKind::DropNotice { .. }
            | EventKind::NicResend { .. } => CompactKind::Fat(match self.free.pop() {
                Some(slot) => {
                    self.slots[slot as usize] = kind;
                    slot
                }
                None => {
                    let slot = u32::try_from(self.slots.len())
                        .expect("event slab exceeded u32::MAX pending fat events");
                    self.slots.push(kind);
                    slot
                }
            }),
        }
    }

    /// The [`EventKind`] behind `kind`; a slab slot stays claimed.
    fn read(&self, kind: CompactKind) -> EventKind {
        match kind {
            CompactKind::TrafficArrival => EventKind::TrafficArrival,
            CompactKind::NicTryInject { node } => EventKind::NicTryInject { node },
            CompactKind::NicCredit { node } => EventKind::NicCredit { node },
            CompactKind::RouterArrive {
                router,
                port,
                vc,
                packet,
            } => EventKind::RouterArrive {
                router,
                port,
                vc,
                packet,
            },
            CompactKind::SwitchAttempt { router, port, vc } => {
                EventKind::SwitchAttempt { router, port, vc }
            }
            CompactKind::OutputAttempt { router, port } => {
                EventKind::OutputAttempt { router, port }
            }
            CompactKind::CreditArrive { router, port, vc } => {
                EventKind::CreditArrive { router, port, vc }
            }
            CompactKind::TaskWake { node } => EventKind::TaskWake { node },
            CompactKind::TaskRecv { node, src } => EventKind::TaskRecv { node, src },
            CompactKind::Fat(slot) => self.slots[slot as usize],
        }
    }

    /// [`FatSlab::read`], releasing the slab slot: the event is leaving
    /// the queue.
    fn unpack(&mut self, kind: CompactKind) -> EventKind {
        if let CompactKind::Fat(slot) = kind {
            self.free.push(slot);
        }
        self.read(kind)
    }
}

/// A pending event as the queue stores it (see the module docs): 40 bytes
/// against the 80 of an [`Event`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    key: u64,
    seq: u64,
    kind: CompactKind,
}

impl Entry {
    #[inline]
    fn order(&self) -> (SimTime, u64, u64) {
        (self.time, self.key, self.seq)
    }

    /// The public form of this entry, given its expanded kind.
    #[inline]
    fn event(&self, kind: EventKind) -> Event {
        Event {
            time: self.time,
            key: self.key,
            seq: self.seq,
            kind,
        }
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest entry pops first.
        other.order().cmp(&self.order())
    }
}

/// Default wheel horizon (buckets × 1 ns) when no engine config is at hand.
const DEFAULT_HORIZON: SimTime = 2048;

/// Hard cap on the wheel size so pathological configs cannot demand
/// gigabytes of buckets.
const MAX_HORIZON: SimTime = 1 << 22;

/// Two-level calendar queue: a circular wheel of 1 ns buckets for the near
/// future plus a heap for far-future overflow.
///
/// Invariants:
///
/// * `cursor` is the time of the last popped event (or 0); all wheel events
///   have `time` in `[cursor, cursor + horizon)`, so the bucket at slot
///   `time % horizon` holds events of exactly one time value.
/// * A bucket with capacity holds events: the pop that empties a bucket
///   frees its buffer.
/// * A bucket is either *unsorted* (its dirty bit is set; events were
///   appended in push order) or sorted **descending** by `(key, seq)` so
///   the next event to fire is at the back and pops are O(1). Buckets are
///   sorted lazily the first time a pop targets them; pushes at exactly
///   the cursor time (same-tick events generated while the tick is being
///   drained) go to the `current` min-heap instead of the bucket.
/// * `overflow` may hold events of any time; [`CalendarQueue::pop`] always
///   compares the wheel front against the overflow top, so ordering never
///   depends on migrating overflow events into the wheel.
/// * `current` holds only events firing at exactly `cursor` — same-tick
///   events generated while that tick is being drained. They pop before
///   anything later-timed, so the heap is always empty again by the time
///   the cursor advances.
#[derive(Debug)]
pub struct CalendarQueue {
    /// `horizon` buckets; bucket `t % horizon` holds events firing at `t`
    /// for the unique `t` in the current window congruent to the slot.
    buckets: Vec<Vec<Entry>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupancy: Vec<u64>,
    /// One bit per bucket: set iff the bucket needs sorting before popping.
    dirty: Vec<u64>,
    /// Wheel width in ns (power of two).
    horizon: SimTime,
    /// `horizon - 1`, for masking times into slots.
    mask: SimTime,
    /// Events currently stored in wheel buckets.
    wheel_len: usize,
    /// Lower bound of the wheel window = time of the last popped event.
    cursor: SimTime,
    /// Same-tick late arrivals: events pushed at exactly `cursor` while
    /// that tick is being drained. A positional insert into the sorted
    /// bucket would cost O(bucket_len) per push — quadratic per tick once
    /// thousands of events share a nanosecond at high entity counts; the
    /// min-heap makes it O(log same-tick-arrivals).
    current: BinaryHeap<Entry>,
    /// Far-future events (and, defensively, any push outside the window).
    overflow: BinaryHeap<Entry>,
    /// The `RlFeedback` / `DropNotice` / `NicResend` payloads of pending
    /// entries.
    fat: FatSlab,
    next_seq: u64,
    popped: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::with_horizon(DEFAULT_HORIZON)
    }
}

/// Where the next event to pop currently lives.
#[derive(Clone, Copy)]
enum NextEvent {
    Wheel(usize),
    Current,
    Overflow,
}

impl CalendarQueue {
    /// A calendar queue whose wheel spans `horizon` nanoseconds (rounded up
    /// to a power of two, clamped to a sane range).
    pub fn with_horizon(horizon: SimTime) -> Self {
        let horizon = horizon.next_power_of_two().clamp(64, MAX_HORIZON);
        Self {
            buckets: (0..horizon).map(|_| Vec::new()).collect(),
            occupancy: vec![0u64; (horizon as usize) / 64],
            dirty: vec![0u64; (horizon as usize) / 64],
            horizon,
            mask: horizon - 1,
            wheel_len: 0,
            cursor: 0,
            current: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            fat: FatSlab::default(),
            next_seq: 0,
            popped: 0,
        }
    }

    /// A wheel sized to the engine's timing constants: four times the
    /// worst-case scheduling distance of any fabric event (serialisation +
    /// slowest link + router pipeline + host link), so everything except
    /// far-future traffic injections lands in the wheel.
    pub fn for_config(cfg: &EngineConfig) -> Self {
        let span = cfg.serialization_ns()
            + cfg.local_latency_ns.max(cfg.global_latency_ns)
            + cfg.router_latency_ns
            + cfg.host_latency_ns;
        Self::with_horizon((span * 4).max(DEFAULT_HORIZON))
    }

    /// [`CalendarQueue::for_config`]. The entity count used to pre-size
    /// every bucket; a bucket's buffer now lives only as long as its tick
    /// holds events, so there is nothing left to size up front. Kept
    /// because the frozen `benchmark/` builds its queues through it.
    pub fn for_config_with_entities(cfg: &EngineConfig, _entities: usize) -> Self {
        Self::for_config(cfg)
    }

    #[inline]
    fn is_dirty(&self, slot: usize) -> bool {
        self.dirty[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    #[inline]
    fn set_dirty(&mut self, slot: usize, dirty: bool) {
        if dirty {
            self.dirty[slot >> 6] |= 1u64 << (slot & 63);
        } else {
            self.dirty[slot >> 6] &= !(1u64 << (slot & 63));
        }
    }

    /// Sort `slot` descending by `(key, seq)` if it is marked dirty, so its
    /// last element is the next to fire.
    fn ensure_sorted(&mut self, slot: usize) {
        if self.is_dirty(slot) {
            self.buckets[slot].sort_unstable_by_key(|e| std::cmp::Reverse((e.key, e.seq)));
            self.set_dirty(slot, false);
        }
    }

    /// Slot of the earliest non-empty wheel bucket, scanning the occupancy
    /// bitmap circularly from the cursor's slot. Because all wheel events
    /// live within one `horizon`-wide window starting at the cursor,
    /// circular slot order equals time order.
    fn earliest_slot(&self) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.cursor & self.mask) as usize;
        let words = self.occupancy.len();
        let start_word = start >> 6;
        let start_bit = start & 63;
        let first = self.occupancy[start_word] & (!0u64 << start_bit);
        if first != 0 {
            return Some((start_word << 6) + first.trailing_zeros() as usize);
        }
        for i in 1..=words {
            let w = (start_word + i) % words;
            let word = if i == words {
                // Wrapped all the way around: only the bits before `start`
                // in the starting word remain unchecked.
                self.occupancy[w] & !(!0u64 << start_bit)
            } else {
                self.occupancy[w]
            };
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
        }
        debug_assert!(false, "wheel_len > 0 but no occupied bucket found");
        None
    }

    /// Location of the next event to pop, if its time is `<= t_end`.
    /// Does everything in one pass: the wheel bitmap is scanned once, and
    /// the candidate bucket is only sorted when its tick actually holds
    /// the minimum time (sorting is pointless when the same-tick heap or
    /// the overflow wins on time alone, or the bound rejects the tick).
    fn next_event_before(&mut self, t_end: SimTime) -> Option<NextEvent> {
        let slot = self.earliest_slot();
        // All events of a bucket share one time, so time-only candidates
        // need no sorting.
        let wheel_t = slot.map(|s| {
            self.buckets[s]
                .last()
                .expect("occupancy bit set on empty bucket")
                .time
        });
        let current = self.current.peek().map(|e| (e.time, e.key, e.seq));
        let overflow = self.overflow.peek().map(|e| (e.time, e.key, e.seq));
        let mut min_t = SimTime::MAX;
        for t in [wheel_t, current.map(|c| c.0), overflow.map(|o| o.0)]
            .into_iter()
            .flatten()
        {
            min_t = min_t.min(t);
        }
        if min_t == SimTime::MAX || min_t > t_end {
            return None;
        }
        // Only sources holding the minimum time compete on (key, seq).
        let wheel = match (slot, wheel_t) {
            (Some(s), Some(t)) if t == min_t => {
                self.ensure_sorted(s);
                let front = self.buckets[s].last().expect("occupied bucket");
                Some((front.key, front.seq, NextEvent::Wheel(s)))
            }
            _ => None,
        };
        let current = current
            .filter(|c| c.0 == min_t)
            .map(|c| (c.1, c.2, NextEvent::Current));
        let overflow = overflow
            .filter(|o| o.0 == min_t)
            .map(|o| (o.1, o.2, NextEvent::Overflow));
        [wheel, current, overflow]
            .into_iter()
            .flatten()
            .min_by_key(|&(key, seq, _)| (key, seq))
            .map(|(_, _, location)| location)
    }

    fn pop_from(&mut self, location: NextEvent) -> Event {
        let entry = match location {
            NextEvent::Wheel(slot) => {
                let bucket = &mut self.buckets[slot];
                let entry = bucket.pop().expect("next_event located an event here");
                self.wheel_len -= 1;
                if bucket.is_empty() {
                    self.occupancy[slot >> 6] &= !(1u64 << (slot & 63));
                    // An empty bucket owns no heap (see the module docs).
                    *bucket = Vec::new();
                }
                entry
            }
            NextEvent::Current => self
                .current
                .pop()
                .expect("next_event located an event here"),
            NextEvent::Overflow => self
                .overflow
                .pop()
                .expect("next_event located an event here"),
        };
        // Advancing the cursor keeps the wheel window anchored at the last
        // popped time; `max` guards against defensive out-of-window pushes
        // that went to the overflow heap with times behind the cursor.
        self.cursor = self.cursor.max(entry.time);
        self.popped += 1;
        entry.event(self.fat.unpack(entry.kind))
    }
}

impl CalendarQueue {
    /// File an already-sequenced event into the wheel or the overflow heap
    /// (the shared tail of [`Scheduler::push`] and checkpoint restore).
    fn insert(&mut self, time: SimTime, key: u64, seq: u64, kind: EventKind) {
        let entry = Entry {
            time,
            key,
            seq,
            kind: self.fat.pack(kind),
        };
        debug_assert!(
            time >= self.cursor,
            "push at {time} behind the scheduler cursor {}",
            self.cursor
        );
        if time == self.cursor {
            // The tick being drained right now: a heap push keeps the
            // event's ordered place among the remaining same-tick events
            // at O(log n) instead of a positional insert's O(n) memmove.
            self.current.push(entry);
        } else if time > self.cursor && time - self.cursor < self.horizon {
            let slot = (time & self.mask) as usize;
            debug_assert!(
                self.buckets[slot].last().is_none_or(|e| e.time == time),
                "bucket {slot} mixes times: held {:?}, pushing {time}",
                self.buckets[slot].last().map(|e| e.time),
            );
            let bucket = &mut self.buckets[slot];
            if bucket.is_empty() {
                bucket.push(entry);
                self.set_dirty(slot, false);
            } else {
                // Future tick: O(1) append now, one sort when a pop first
                // targets the bucket (see `ensure_sorted`).
                bucket.push(entry);
                self.set_dirty(slot, true);
            }
            self.occupancy[slot >> 6] |= 1u64 << (slot & 63);
            self.wheel_len += 1;
        } else {
            // Far future (or, defensively, behind the cursor): the heap
            // level handles any time correctly, just more slowly.
            self.overflow.push(entry);
        }
    }

    /// Heap footprint of the queue in bytes: the bucket table and bitmaps
    /// (fixed), the buffers of occupied buckets, the same-tick and
    /// overflow heaps and the side slab, at their capacities.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let entries = self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.current.capacity()
            + self.overflow.capacity();
        entries * size_of::<Entry>()
            + self.buckets.capacity() * size_of::<Vec<Entry>>()
            + (self.occupancy.capacity() + self.dirty.capacity()) * size_of::<u64>()
            + self.fat.slots.capacity() * size_of::<EventKind>()
            + self.fat.free.capacity() * size_of::<u32>()
    }

    /// The pending events, in no particular order. Non-destructive.
    pub(crate) fn events(&self) -> impl Iterator<Item = Event> + '_ {
        let entries = self.buckets.iter().flatten().chain(&self.current);
        let entries = entries.chain(&self.overflow);
        entries.map(|entry| entry.event(self.fat.read(entry.kind)))
    }

    /// Refill this queue from a checkpoint, preserving every event's
    /// sequence number and the push counter, and continuing the pop counter
    /// from `popped`. Events it holds are dropped, the wheel's buffers with
    /// them. `now` anchors the wheel window; every restored event must fire
    /// at or after it (guaranteed after `run_until(now)`, which drains
    /// everything up to and including `now`). Every event's kind passes
    /// through `map` on its way in, and those it maps to `None` stay out: a
    /// shard takes its own events straight from the canonical list,
    /// renumbering packet refs as they pass.
    pub(crate) fn restore_mapped(
        &mut self,
        ck: &SchedulerCheckpoint,
        now: SimTime,
        popped: u64,
        mut map: impl FnMut(EventKind) -> Option<EventKind>,
    ) {
        for bucket in self.buckets.iter_mut().filter(|b| b.capacity() > 0) {
            *bucket = Vec::new();
        }
        self.occupancy.fill(0);
        self.dirty.fill(0);
        self.wheel_len = 0;
        self.current = BinaryHeap::new();
        self.overflow = BinaryHeap::new();
        self.fat = FatSlab::default();
        self.cursor = now;
        for event in &ck.events {
            if let Some(kind) = map(event.kind) {
                self.insert(event.time, event.key, event.seq, kind);
            }
        }
        self.next_seq = ck.next_seq;
        self.popped = popped;
    }
}

impl Scheduler for CalendarQueue {
    fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(time, event_key(&kind), seq, kind);
    }

    fn pop(&mut self) -> Option<Event> {
        let location = self.next_event_before(SimTime::MAX)?;
        Some(self.pop_from(location))
    }

    fn pop_before(&mut self, t_end: SimTime) -> Option<Event> {
        let location = self.next_event_before(t_end)?;
        Some(self.pop_from(location))
    }

    fn peek_time(&self) -> Option<SimTime> {
        // Same-tick events fire at the cursor — nothing can be earlier.
        if let Some(e) = self.current.peek() {
            return Some(e.time);
        }
        // All events in a bucket share one time, so no sorting is needed to
        // answer time-only queries.
        let wheel = self
            .earliest_slot()
            .map(|slot| self.buckets[slot].last().expect("occupied bucket").time);
        let overflow = self.overflow.peek().map(|e| e.time);
        match (wheel, overflow) {
            (None, None) => None,
            (Some(w), None) => Some(w),
            (None, Some(o)) => Some(o),
            (Some(w), Some(o)) => Some(w.min(o)),
        }
    }

    fn len(&self) -> usize {
        self.wheel_len + self.current.len() + self.overflow.len()
    }

    fn processed(&self) -> u64 {
        self.popped
    }
}

/// The engine's event queue.
pub type EventQueue = CalendarQueue;

/// A serialisable snapshot of the event queue (the `queue` of a
/// [`crate::checkpoint::ShardCheckpoint`]): the pending events in canonical
/// order plus the counters that keep sequence numbers — and therefore
/// tie-breaking — identical after a restore.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerCheckpoint {
    /// Pending events, ascending by `(time, key, seq)`.
    pub events: Vec<Event>,
    /// The push counter (next sequence number to assign).
    pub next_seq: u64,
    /// The pop counter (`processed()` continues from here).
    pub popped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: a plain `BinaryHeap<Event>` min-queue, O(log n) per
    /// operation, whose pop order is the contract by construction.
    #[derive(Debug, Default)]
    struct BinaryHeapScheduler {
        heap: BinaryHeap<Event>,
        next_seq: u64,
        popped: u64,
    }

    impl BinaryHeapScheduler {
        fn new() -> Self {
            Self::default()
        }
    }

    impl Scheduler for BinaryHeapScheduler {
        fn push(&mut self, time: SimTime, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Event {
                time,
                key: event_key(&kind),
                seq,
                kind,
            });
        }

        fn pop(&mut self) -> Option<Event> {
            let e = self.heap.pop();
            if e.is_some() {
                self.popped += 1;
            }
            e
        }

        fn pop_before(&mut self, t_end: SimTime) -> Option<Event> {
            if self.heap.peek().is_some_and(|e| e.time <= t_end) {
                self.pop()
            } else {
                None
            }
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn processed(&self) -> u64 {
            self.popped
        }
    }

    fn schedulers() -> Vec<(&'static str, Box<dyn Scheduler>)> {
        vec![
            ("heap", Box::new(BinaryHeapScheduler::new())),
            ("calendar", Box::new(CalendarQueue::default())),
            ("small-calendar", Box::new(CalendarQueue::with_horizon(64))),
        ]
    }

    /// Order *and* payload: what a queue hands back must be the event that
    /// was pushed, not just one that sorts like it.
    fn assert_same_event(oracle: &Event, queue: &Event, context: &str) {
        assert_eq!(
            (oracle.order(), oracle.kind),
            (queue.order(), queue.kind),
            "{context}"
        );
    }

    #[test]
    fn queue_entry_is_at_most_40_bytes() {
        assert!(std::mem::size_of::<CompactKind>() <= 12);
        assert!(std::mem::size_of::<Entry>() <= 40);
    }

    #[test]
    fn pops_in_time_order() {
        for (name, mut q) in schedulers() {
            q.push(50, EventKind::TrafficArrival);
            q.push(10, EventKind::TrafficArrival);
            q.push(30, EventKind::TrafficArrival);
            assert_eq!(q.len(), 3, "{name}");
            assert_eq!(q.pop().unwrap().time, 10, "{name}");
            assert_eq!(q.pop().unwrap().time, 30, "{name}");
            assert_eq!(q.pop().unwrap().time, 50, "{name}");
            assert!(q.pop().is_none(), "{name}");
            assert_eq!(q.processed(), 3, "{name}");
        }
    }

    #[test]
    fn equal_times_pop_in_key_order_regardless_of_push_order() {
        for (name, mut q) in schedulers() {
            // Pushed in reverse entity order; the content key sorts them.
            q.push(5, EventKind::NicTryInject { node: NodeId(3) });
            q.push(5, EventKind::NicTryInject { node: NodeId(1) });
            q.push(5, EventKind::NicTryInject { node: NodeId(2) });
            let order: Vec<u32> = std::iter::from_fn(|| q.pop())
                .map(|e| match e.kind {
                    EventKind::NicTryInject { node } => node.0,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![1, 2, 3], "{name}");
        }
    }

    #[test]
    fn identical_events_pop_in_scheduling_order() {
        for (name, mut q) in schedulers() {
            // Same key: distinguishable only by seq, which is push order.
            q.push(5, EventKind::TrafficArrival);
            q.push(5, EventKind::TrafficArrival);
            let a = q.pop().unwrap();
            let b = q.pop().unwrap();
            assert!(a.seq < b.seq, "{name}: identical events must be FIFO");
        }
    }

    #[test]
    fn classes_rank_same_tick_events() {
        for (name, mut q) in schedulers() {
            let node = NodeId(7);
            let router = RouterId(3);
            let port = Port(2);
            q.push(9, EventKind::OutputAttempt { router, port });
            q.push(9, EventKind::TrafficArrival);
            q.push(
                9,
                EventKind::RouterArrive {
                    router,
                    port,
                    vc: 0,
                    packet: PacketRef(0),
                },
            );
            q.push(9, EventKind::NicCredit { node });
            let classes: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|e| e.key >> 60)
                .collect();
            assert_eq!(
                classes,
                vec![
                    CLASS_TRAFFIC,
                    CLASS_NIC_CREDIT,
                    CLASS_ROUTER_ARRIVE,
                    CLASS_OUTPUT
                ],
                "{name}"
            );
        }
    }

    #[test]
    fn task_events_rank_after_fabric_events_and_key_on_their_content() {
        // The closed-loop task events live in their own key classes, after
        // every fabric class, and are keyed by the entities whose relative
        // order can matter: the node for wakes, `(node, src)` for receive
        // notifications.
        let wake = event_key(&EventKind::TaskWake { node: NodeId(5) });
        assert_eq!(wake >> 60, CLASS_TASK_WAKE);
        assert_eq!(wake & 0xFFFF_FFFF, 5);
        let recv = event_key(&EventKind::TaskRecv {
            node: NodeId(3),
            src: NodeId(9),
        });
        assert_eq!(recv >> 60, CLASS_TASK_RECV);
        assert_eq!((recv >> 28) & 0x0FFF_FFFF, 3);
        assert_eq!(recv & 0x0FFF_FFFF, 9);
        const _: () =
            assert!(CLASS_TASK_WAKE > CLASS_FEEDBACK && CLASS_TASK_RECV > CLASS_TASK_WAKE);
        for (name, mut q) in schedulers() {
            q.push(
                4,
                EventKind::TaskRecv {
                    node: NodeId(1),
                    src: NodeId(2),
                },
            );
            q.push(4, EventKind::TaskWake { node: NodeId(1) });
            q.push(4, EventKind::NicCredit { node: NodeId(1) });
            let classes: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|e| e.key >> 60)
                .collect();
            assert_eq!(
                classes,
                vec![CLASS_NIC_CREDIT, CLASS_TASK_WAKE, CLASS_TASK_RECV],
                "{name}"
            );
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        for (name, mut q) in schedulers() {
            assert_eq!(q.peek_time(), None, "{name}");
            q.push(42, EventKind::TrafficArrival);
            q.push(7, EventKind::TrafficArrival);
            assert_eq!(q.peek_time(), Some(7), "{name}");
            q.pop();
            assert_eq!(q.peek_time(), Some(42), "{name}");
        }
    }

    #[test]
    fn pop_before_respects_the_bound() {
        for (name, mut q) in schedulers() {
            q.push(10, EventKind::TrafficArrival);
            q.push(20, EventKind::TrafficArrival);
            assert!(q.pop_before(5).is_none(), "{name}");
            assert_eq!(q.pop_before(10).unwrap().time, 10, "{name}");
            assert!(q.pop_before(15).is_none(), "{name}");
            assert_eq!(q.pop_before(u64::MAX).unwrap().time, 20, "{name}");
            assert!(q.pop_before(u64::MAX).is_none(), "{name}");
        }
    }

    #[test]
    fn calendar_far_future_goes_to_overflow_and_pops_in_order() {
        let mut q = CalendarQueue::with_horizon(64);
        q.push(1_000_000, EventKind::TrafficArrival); // far beyond the wheel
        q.push(3, EventKind::TrafficArrival);
        q.push(999_999, EventKind::TrafficArrival);
        assert!(q.overflow.len() >= 2, "far-future events use the overflow");
        assert_eq!(q.pop().unwrap().time, 3);
        assert_eq!(q.pop().unwrap().time, 999_999);
        assert_eq!(q.pop().unwrap().time, 1_000_000);
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_overflow_ties_with_wheel_resolve_like_the_heap() {
        // The same (time, key) in the overflow level and the wheel must
        // resolve by seq, exactly as a single heap would.
        let mut q = CalendarQueue::with_horizon(64);
        // Pushed first while out of window: ends up in overflow with seq 0.
        q.push(100, EventKind::NicTryInject { node: NodeId(1) });
        // Advance the cursor so time 100 is now within the wheel window.
        q.push(60, EventKind::TrafficArrival);
        q.pop();
        // Pushed second, lands in the wheel at the same (time, key): seq 2.
        q.push(100, EventKind::NicTryInject { node: NodeId(1) });
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 2], "overflow-vs-wheel tie breaks by seq");
    }

    #[test]
    fn calendar_wheel_wraps_around() {
        let mut q = CalendarQueue::with_horizon(64);
        // Walk the cursor across several full wheel rotations.
        for step in 0..300u64 {
            let t = step * 13; // co-prime with 64: hits every slot
            q.push(t, EventKind::TrafficArrival);
            assert_eq!(q.pop().unwrap().time, t);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_interleaved_pushes_at_the_popped_time() {
        // Events scheduled *at* the current time while draining it must
        // sort into their (key, seq) position among the remaining
        // same-tick events, like the heap.
        let mut heap: Box<dyn Scheduler> = Box::new(BinaryHeapScheduler::new());
        let mut cal: Box<dyn Scheduler> = Box::new(CalendarQueue::with_horizon(64));
        for q in [&mut heap, &mut cal] {
            q.push(5, EventKind::NicTryInject { node: NodeId(2) });
            q.push(5, EventKind::NicTryInject { node: NodeId(4) });
            let first = q.pop().unwrap();
            assert_eq!(first.time, 5);
            // Dispatch of the first event schedules two more at t=5: one
            // sorting before the pending node-4 event, one after.
            q.push(5, EventKind::NicTryInject { node: NodeId(3) });
            q.push(5, EventKind::NicTryInject { node: NodeId(5) });
            let order: Vec<u32> = std::iter::from_fn(|| q.pop())
                .map(|e| match e.kind {
                    EventKind::NicTryInject { node } => node.0,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![3, 4, 5]);
        }
    }

    #[test]
    fn calendar_skips_long_empty_stretches() {
        let mut q = CalendarQueue::with_horizon(1024);
        // Two events at opposite ends of the wheel with nothing in between:
        // the bitmap scan must jump the gap, not walk it bucket by bucket
        // (correctness check here; the speed is what the benches measure).
        q.push(1, EventKind::TrafficArrival);
        q.push(1_020, EventKind::TrafficArrival);
        assert_eq!(q.pop().unwrap().time, 1);
        assert_eq!(q.peek_time(), Some(1_020));
        assert_eq!(q.pop().unwrap().time, 1_020);
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn random_workload_matches_heap_order_exactly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut heap = BinaryHeapScheduler::new();
        let mut cal = CalendarQueue::with_horizon(256);
        // Interleave batches of pushes (times never behind the last pop,
        // like the engine) with drains, across several wheel rotations.
        let mut now: SimTime = 0;
        for round in 0..200 {
            for _ in 0..rng.gen_range(1..20) {
                let t = now + rng.gen_range(0..2_000u64);
                let kind = engine_event(&mut rng);
                heap.push(t, kind);
                cal.push(t, kind);
            }
            for _ in 0..rng.gen_range(1..15) {
                let (h, c) = (heap.pop(), cal.pop());
                match (h, c) {
                    (None, None) => break,
                    (Some(h), Some(c)) => {
                        assert_same_event(&h, &c, &format!("round {round}"));
                        now = h.time;
                    }
                    other => panic!("schedulers disagree on emptiness: {other:?}"),
                }
            }
        }
        // Drain whatever is left.
        loop {
            match (heap.pop(), cal.pop()) {
                (None, None) => break,
                (Some(h), Some(c)) => assert_same_event(&h, &c, "final drain"),
                other => panic!("schedulers disagree on emptiness: {other:?}"),
            }
        }
    }

    /// A same-tick-collision-prone event of any of the twelve kinds, the
    /// way the engine's dispatch loop produces them. The payload fields no
    /// key covers (`reward_ns`, `dst`, ...) are drawn too, so a queue that
    /// hands back the wrong payload for the right key is caught.
    fn engine_event(rng: &mut impl rand::Rng) -> EventKind {
        let node = NodeId(rng.gen_range(0..64u32));
        let other = NodeId(rng.gen_range(0..64u32));
        let router = RouterId(rng.gen_range(0..16u32));
        let port = Port(rng.gen_range(0..8u32) as u16);
        let vc = rng.gen_range(0..5u32) as u8;
        let id = rng.gen_range(0..1_000_000u64);
        match rng.gen_range(0..12u32) {
            0 => EventKind::TrafficArrival,
            1 => EventKind::NicTryInject { node },
            2 => EventKind::NicCredit { node },
            3 => EventKind::RouterArrive {
                router,
                port,
                vc,
                packet: PacketRef(rng.gen_range(0..1_000u32)),
            },
            4 => EventKind::SwitchAttempt { router, port, vc },
            5 => EventKind::OutputAttempt { router, port },
            6 => EventKind::CreditArrive { router, port, vc },
            7 => EventKind::TaskWake { node },
            8 => EventKind::TaskRecv { node, src: other },
            9 => EventKind::DropNotice {
                node,
                dst: other,
                id,
            },
            10 => EventKind::NicResend {
                node,
                dst: other,
                id,
            },
            _ => EventKind::RlFeedback {
                router,
                msg: FeedbackMsg {
                    packet_id: id,
                    src: node,
                    dst: other,
                    dst_router: RouterId(rng.gen_range(0..16u32)),
                    dst_group: dragonfly_topology::ids::GroupId(rng.gen_range(0..4u32)),
                    src_slot: rng.gen_range(0..4u32) as u8,
                    port,
                    reward_ns: rng.gen_range(0..5_000u32) as f64,
                    downstream_estimate_ns: rng.gen_range(0..5_000u32) as f64,
                },
            },
        }
    }

    #[test]
    fn engine_shaped_stream_with_mid_stream_restore_matches_heap_order() {
        // The order contract on the stream shape the engine produces: a
        // hold model over the engine's own scheduling distances (every pop
        // schedules a successor one of the five `EngineConfig` latencies
        // ahead), same-tick bursts of mixed event classes, pushes at the
        // just-popped time, far-future injections that live in the
        // overflow level, and a checkpoint restored into a fresh queue
        // half-way through.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cfg = EngineConfig::default();
        let deltas = [
            cfg.serialization_ns(),
            cfg.local_latency_ns,
            cfg.global_latency_ns,
            cfg.router_latency_ns,
            cfg.host_latency_ns,
        ];
        const STEPS: usize = 20_000;
        fn push(heap: &mut BinaryHeapScheduler, cal: &mut CalendarQueue, t: SimTime, k: EventKind) {
            heap.push(t, k);
            cal.push(t, k);
        }
        // The engine's wheel, and one narrower than the global latency so
        // ordinary hops overflow too.
        for horizon in [CalendarQueue::for_config(&cfg).horizon, 64] {
            let mut rng = StdRng::seed_from_u64(horizon);
            let mut heap = BinaryHeapScheduler::new();
            let mut cal = CalendarQueue::with_horizon(horizon);
            for _ in 0..256 {
                let t = rng.gen_range(0..cfg.global_latency_ns);
                push(&mut heap, &mut cal, t, engine_event(&mut rng));
            }
            for step in 0..STEPS {
                // A burst leaves extra events behind; some steps pop twice
                // so the population stays near its starting size.
                let pops = if rng.gen_range(0..4u32) == 0 { 2 } else { 1 };
                let mut now = 0;
                for _ in 0..pops {
                    let (Some(h), Some(c)) = (heap.pop(), cal.pop()) else {
                        panic!("horizon {horizon} step {step}: a queue ran dry");
                    };
                    assert_same_event(&h, &c, &format!("horizon {horizon} step {step}"));
                    now = h.time;
                }
                // Hold: every pop schedules a successor one engine latency
                // ahead.
                let delta = deltas[rng.gen_range(0..deltas.len())];
                push(&mut heap, &mut cal, now + delta, engine_event(&mut rng));
                match rng.gen_range(0..32u32) {
                    // A burst of mixed classes on one future tick.
                    0 => {
                        let t = now + deltas[rng.gen_range(0..deltas.len())];
                        for _ in 0..rng.gen_range(2..12u32) {
                            push(&mut heap, &mut cal, t, engine_event(&mut rng));
                        }
                    }
                    // Same-tick work generated while the tick drains.
                    1 | 2 => push(&mut heap, &mut cal, now, engine_event(&mut rng)),
                    // A far-future traffic injection.
                    3 => {
                        let t = now + rng.gen_range(10_000..200_000u64);
                        push(&mut heap, &mut cal, t, EventKind::TrafficArrival);
                    }
                    _ => {}
                }
                assert_eq!(heap.len(), cal.len(), "horizon {horizon} step {step}");
                if step == STEPS / 2 {
                    // `now` is the last popped time, as after `run_until`.
                    let mut events: Vec<Event> = cal.events().collect();
                    events.sort_unstable_by_key(Event::order);
                    let (next_seq, popped) = (cal.next_seq, cal.popped);
                    let snapshot = SchedulerCheckpoint {
                        events,
                        next_seq,
                        popped,
                    };
                    // `Event`'s `Ord` is inverted for the max-heap, so its
                    // sorted order is the canonical order backwards.
                    let mut pending = heap.heap.clone().into_sorted_vec();
                    pending.reverse();
                    assert_eq!(snapshot.events.len(), pending.len());
                    for (want, got) in pending.iter().zip(&snapshot.events) {
                        assert_same_event(want, got, &format!("horizon {horizon} snapshot"));
                    }
                    let mut fresh = CalendarQueue::with_horizon(horizon);
                    fresh.restore_mapped(&snapshot, now, popped, Some);
                    assert_eq!(fresh.processed(), cal.processed());
                    cal = fresh;
                }
            }
            while let Some(h) = heap.pop() {
                let c = cal.pop().expect("calendar ran dry before the oracle");
                assert_same_event(&h, &c, &format!("horizon {horizon} final drain"));
            }
            assert!(cal.pop().is_none());
            assert_eq!(heap.processed(), cal.processed());
        }
    }

    #[test]
    fn fat_slab_is_reused_not_grown() {
        // A steady population of fat events, replaced one by one: the slab
        // must reach the population's size and stop, however many pass
        // through, and every payload must come back with its own event.
        const PENDING: u64 = 64;
        let fat = |i: u64| match i % 3 {
            0 => EventKind::DropNotice {
                node: NodeId(i as u32),
                dst: NodeId(1),
                id: i,
            },
            1 => EventKind::NicResend {
                node: NodeId(i as u32),
                dst: NodeId(2),
                id: i,
            },
            _ => EventKind::RlFeedback {
                router: RouterId(i as u32),
                msg: FeedbackMsg {
                    packet_id: i,
                    src: NodeId(0),
                    dst: NodeId(0),
                    dst_router: RouterId(0),
                    dst_group: dragonfly_topology::ids::GroupId(0),
                    src_slot: 0,
                    port: Port(0),
                    reward_ns: i as f64,
                    downstream_estimate_ns: 0.0,
                },
            },
        };
        let mut q = CalendarQueue::default();
        for i in 0..PENDING {
            q.push(i, fat(i));
        }
        let slots = q.fat.slots.len();
        assert_eq!(slots as u64, PENDING);
        for i in PENDING..PENDING + 10 * slots as u64 {
            let popped = q.pop().expect("the population never drains");
            assert_eq!(popped.kind, fat(i - PENDING));
            q.push(i, fat(i));
            assert_eq!(q.fat.slots.len(), slots, "slab grew at event {i}");
        }
        assert_eq!(q.fat.free.len(), 0, "every slot is claimed again");
    }
}
