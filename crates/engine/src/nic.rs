//! Network-interface state for each compute node.
//!
//! A NIC holds an unbounded backlog (generated messages that have not yet
//! entered the network) and the credit/serialisation state of the host link
//! into its router. Offered load beyond what the network can absorb
//! accumulates in the backlog; system throughput (the paper's metric)
//! therefore saturates below the offered load under congestion.
//!
//! # A message is not a packet until it is injected
//!
//! A generated message that has not left its NIC is fully determined by
//! the NIC and `(id, dst, created_ns)`: every other [`Packet`] field is
//! derived from the topology ([`Packet::new`]), and nothing reads or
//! writes the packet before injection. So that is all the backlog stores:
//!
//! * one 24-byte record per queued message, `{id, created_ns, dst, next}`,
//!   in one [`Backlog`] pool per shard: fixed 1,024-record chunks (24 KB;
//!   the arena's `Chunked` storage), every NIC's FIFO threaded through
//!   `next`, freed records reused LIFO;
//! * per NIC, a [`Nic`] of 48 bytes: the FIFO's head, tail and length
//!   beside the credit and link state.
//!
//! The packet is built on the stack for the `packet_generated` observer
//! call and into the arena at injection. Under congestion the backlog is
//! most of what the engine holds. At the end of `adv_qadp_1056` (seed 0)
//! the arena held 41.4 MB of 104-byte packets, nearly all of them queued
//! at NICs, and the heap peaked at 57.9 MB; with the backlog as records the
//! arena held 7.5 MB of 104-byte fabric packets and the backlog 8.5 MB, and
//! the peak was 28.9 MB. Fabric packets are now 64 bytes (see
//! [`crate::packet`]).
//! A `VecDeque` per NIC would cost 32 bytes for every NIC, queued or not
//! (3.6 MB of headers at 110,976 nodes), and a doubling copy on every
//! backlog that grows; one pool per shard grows by a chunk and never moves
//! a record. Chunks are 1,024 records, not the arena's 4,096, because most
//! workloads queue little: with 4,096-record chunks `ur_ugal_1056`'s heap
//! peak rose by 56 KB over the arena-held backlog, with 1,024 it falls by
//! 17.5 KB. A fresh pool owns nothing.
//!
//! # The wire form
//!
//! Snapshots keep their bytes: [`NicState`] is the former run-time struct,
//! field for field, with its source queue of arena handles.
//! `Engine::checkpoint` writes each queued message as the [`PacketState`] of
//! the packet [`Packet::new`] builds, into the arena slot the canonical
//! walk gives it, and points the source queue there. `Shard::restore`
//! reads each NIC's source queue in the canonical snapshot in place and
//! turns the states it points at straight back into records of the fresh
//! engine's backlog (`queued_of` refuses one the NIC could not have
//! generated); they never enter the restored arena.

use crate::arena::{Chunked, PacketRef};
use crate::config::EngineConfig;
use crate::packet::{Packet, PacketState, RouteInfo};
use crate::time::SimTime;
use dragonfly_topology::ids::NodeId;
use dragonfly_topology::AnyTopology;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A node's injection state as snapshots store it: the layout the run-time
/// NIC had while its source queue held arena handles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NicState {
    /// Queued packets, oldest first (handles into the snapshot's arena).
    pub source_queue: VecDeque<PacketRef>,
    /// Free slots in the router's host-port input buffer (VC 0).
    pub credits: usize,
    /// When the node-to-router link finishes serialising its current packet.
    pub link_free_at: SimTime,
    /// Whether a retry event is already scheduled for this NIC.
    pub retry_pending: bool,
    /// Total packets handed to this NIC by the traffic generator.
    pub generated: u64,
    /// Total packets injected into the fabric.
    pub injected: u64,
}

/// log2 of [`CHUNK_RECORDS`].
const CHUNK_SHIFT: u32 = 10;

/// Records per backlog storage chunk (see the module docs).
pub const CHUNK_RECORDS: usize = 1 << CHUNK_SHIFT;

/// End of a FIFO, and both ends of an empty one.
const NIL: u32 = u32::MAX;

/// A generated message waiting at its source NIC: what its packet is built
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Queued {
    /// Packet id.
    pub id: u64,
    /// Destination node.
    pub dst: NodeId,
    /// Generation time.
    pub created_ns: SimTime,
}

/// One queued message and the record after it in its NIC's FIFO (or, while
/// the record is free, the next free record). 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Record {
    id: u64,
    created_ns: SimTime,
    dst: NodeId,
    next: u32,
}

/// Per-node injection state at run time (the backlog itself lives in the
/// shard's [`Backlog`]).
#[derive(Debug, Clone)]
pub struct Nic {
    head: u32,
    tail: u32,
    len: u32,
    /// Free slots in the router's host-port input buffer (VC 0).
    pub(crate) credits: u32,
    /// When the node-to-router link finishes serialising its current packet.
    pub(crate) link_free_at: SimTime,
    /// Whether a retry event is already scheduled for this NIC.
    pub(crate) retry_pending: bool,
    /// Total packets handed to this NIC by the traffic generator.
    pub(crate) generated: u64,
    /// Total packets injected into the fabric.
    pub(crate) injected: u64,
}

impl Nic {
    /// An idle NIC with a full credit allowance and nothing queued.
    pub fn new(cfg: &EngineConfig) -> Self {
        Self {
            head: NIL,
            tail: NIL,
            len: 0,
            credits: u32::try_from(cfg.vc_buffer_packets).expect("validated to 16 bits"),
            link_free_at: 0,
            retry_pending: false,
            generated: 0,
            injected: 0,
        }
    }

    /// This NIC's counters and link state from its wire form, with nothing
    /// queued yet (the caller pushes the source queue's messages).
    pub(crate) fn from_wire(wire: &NicState) -> Self {
        Self {
            head: NIL,
            tail: NIL,
            len: 0,
            credits: u32::try_from(wire.credits).expect("checked against vc_buffer_packets"),
            link_free_at: wire.link_free_at,
            retry_pending: wire.retry_pending,
            generated: wire.generated,
            injected: wire.injected,
        }
    }

    /// The wire form of this NIC, given its source queue.
    pub(crate) fn to_wire(&self, source_queue: VecDeque<PacketRef>) -> NicState {
        NicState {
            source_queue,
            credits: self.credits as usize,
            link_free_at: self.link_free_at,
            retry_pending: self.retry_pending,
            generated: self.generated,
            injected: self.injected,
        }
    }

    /// Whether the NIC can inject a message right now.
    pub fn can_inject(&self, now: SimTime) -> bool {
        self.len > 0 && self.credits > 0 && self.link_free_at <= now
    }

    /// Messages waiting in this NIC's backlog.
    pub fn backlog(&self) -> usize {
        self.len as usize
    }
}

/// The queued messages of every NIC of a shard: one chunked pool of
/// records, each NIC's FIFO threaded through it, with a LIFO free list.
#[derive(Debug)]
pub struct Backlog {
    records: Chunked<Record, CHUNK_SHIFT>,
    free: u32,
    queued: usize,
}

impl Default for Backlog {
    fn default() -> Self {
        Self::new()
    }
}

impl Backlog {
    /// An empty pool; it owns no heap until the first push.
    pub fn new() -> Self {
        Self {
            records: Chunked::default(),
            free: NIL,
            queued: 0,
        }
    }

    /// Queue `msg` at the back of `nic`'s FIFO.
    #[inline]
    pub fn push_back(&mut self, nic: &mut Nic, msg: Queued) {
        let record = Record {
            id: msg.id,
            created_ns: msg.created_ns,
            dst: msg.dst,
            next: NIL,
        };
        let i = match self.free {
            NIL => {
                let i = u32::try_from(self.records.len())
                    .ok()
                    .filter(|&i| i < NIL)
                    .expect("a shard queued more than 2^32 - 1 messages");
                self.records.push(record);
                i
            }
            i => {
                let slot = self.records.get_mut(i as usize);
                self.free = slot.next;
                *slot = record;
                i
            }
        };
        match nic.tail {
            NIL => nic.head = i,
            tail => self.records.get_mut(tail as usize).next = i,
        }
        nic.tail = i;
        nic.len += 1;
        self.queued += 1;
    }

    /// Take the oldest message of `nic`'s FIFO.
    #[inline]
    pub fn pop_front(&mut self, nic: &mut Nic) -> Option<Queued> {
        let i = nic.head;
        if i == NIL {
            return None;
        }
        let free = self.free;
        let record = self.records.get_mut(i as usize);
        let msg = Queued {
            id: record.id,
            dst: record.dst,
            created_ns: record.created_ns,
        };
        nic.head = std::mem::replace(&mut record.next, free);
        if nic.head == NIL {
            nic.tail = NIL;
        }
        self.free = i;
        nic.len -= 1;
        self.queued -= 1;
        Some(msg)
    }

    /// `nic`'s messages, oldest first.
    pub fn iter<'a>(&'a self, nic: &Nic) -> impl Iterator<Item = Queued> + 'a {
        std::iter::successors((nic.head != NIL).then_some(nic.head), |&i| {
            let next = self.records.get(i as usize).next;
            (next != NIL).then_some(next)
        })
        .map(|i| {
            let r = self.records.get(i as usize);
            Queued {
                id: r.id,
                dst: r.dst,
                created_ns: r.created_ns,
            }
        })
    }

    /// Messages queued over all NICs.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether no NIC has anything queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Heap footprint in bytes: the record chunks and the chunk table.
    pub fn memory_bytes(&self) -> usize {
        self.records.memory_bytes()
    }
}

/// The message `src`'s NIC queued as `state`, or why `state` is not one
/// that NIC generated: the checks of [`Packet::from_state`], then the
/// fields of a packet no router has touched yet, as [`Packet::new`] builds
/// it (the error names the packet and the field).
pub(crate) fn queued_of(
    topo: &AnyTopology,
    cfg: &EngineConfig,
    src: NodeId,
    state: &PacketState,
) -> Result<Queued, String> {
    let s = state;
    let not_generated = |field: &str| {
        Err(format!(
            "packet {} has a {field} that NIC {} does not generate",
            s.id,
            src.index()
        ))
    };
    if s.src != src {
        return not_generated("src");
    }
    Packet::from_state(s, topo, cfg)?;
    for (field, fresh) in [
        ("injected_ns", s.injected_ns == s.created_ns),
        ("hops", s.hops == 0),
        ("vc", s.vc == 0),
        ("route", s.route == RouteInfo::default()),
        ("last_router", s.last_router.is_none()),
        ("last_out_port", s.last_out_port.is_none()),
        ("last_decision_ns", s.last_decision_ns == s.created_ns),
        ("pending_decision", s.pending_decision.is_none()),
    ] {
        if !fresh {
            return not_generated(field);
        }
    }
    Ok(Queued {
        id: s.id,
        dst: s.dst,
        created_ns: s.created_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(id: u64) -> Queued {
        Queued {
            id,
            dst: NodeId((id % 7) as u32),
            created_ns: id * 3,
        }
    }

    #[test]
    fn fresh_nic_cannot_inject_without_packets() {
        let nic = Nic::new(&EngineConfig::default());
        assert!(!nic.can_inject(0));
        assert_eq!(nic.backlog(), 0);
    }

    #[test]
    fn injection_requires_credits_and_free_link() {
        let cfg = EngineConfig::default();
        let mut nic = Nic::new(&cfg);
        Backlog::new().push_back(&mut nic, message(0));
        assert!(nic.can_inject(0));
        nic.credits = 0;
        assert!(!nic.can_inject(0));
        nic.credits = 1;
        nic.link_free_at = 100;
        assert!(!nic.can_inject(50));
        assert!(nic.can_inject(100));
    }

    #[test]
    fn the_packet_a_nic_builds_is_one_it_generated() {
        let topo: AnyTopology =
            dragonfly_topology::Dragonfly::new(dragonfly_topology::DragonflyConfig::tiny()).into();
        let cfg = EngineConfig::paper(5);
        for id in 0..72 {
            let msg = message(id);
            let src = NodeId((id * 5 % 72) as u32);
            let state = Packet::new(&topo, id, src, msg.dst, msg.created_ns).to_state(&topo, &cfg);
            assert_eq!(queued_of(&topo, &cfg, src, &state), Ok(msg));
        }
    }

    #[test]
    fn a_record_is_24_bytes_and_a_nic_48() {
        assert_eq!(std::mem::size_of::<Record>(), 24);
        assert!(std::mem::size_of::<Nic>() <= 48);
    }

    /// splitmix64: a seeded stream for the operation generator.
    fn next(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn backlog_pool_matches_a_deque_per_nic() {
        // The pool against the layout it replaced: one `VecDeque` of
        // messages per NIC, through seeded mixed pushes and pops, comparing
        // what each pop returns, every NIC's length and its iteration order.
        const NICS: usize = 64;
        let cfg = EngineConfig::default();
        for seed in 0..4 {
            let mut x = seed;
            let mut pool = Backlog::new();
            let mut nics: Vec<Nic> = (0..NICS).map(|_| Nic::new(&cfg)).collect();
            let mut oracle: Vec<VecDeque<Queued>> = vec![VecDeque::new(); NICS];
            let mut id = 0;
            for step in 0..10_000 {
                let n = (next(&mut x) % NICS as u64) as usize;
                // Pushes outnumber pops 3:2, so queues grow and drain.
                if next(&mut x) % 5 < 3 {
                    id += 1;
                    pool.push_back(&mut nics[n], message(id));
                    oracle[n].push_back(message(id));
                } else {
                    let got = pool.pop_front(&mut nics[n]);
                    assert_eq!(got, oracle[n].pop_front(), "seed {seed} step {step}");
                }
                assert_eq!(
                    nics[n].backlog(),
                    oracle[n].len(),
                    "seed {seed} step {step}"
                );
                if step % 500 == 0 {
                    for (nic, want) in nics.iter().zip(&oracle) {
                        let order: Vec<Queued> = pool.iter(nic).collect();
                        assert!(order.iter().eq(want.iter()), "seed {seed} step {step}");
                    }
                }
            }
            let total: usize = oracle.iter().map(VecDeque::len).sum();
            assert_eq!(pool.len(), total, "seed {seed}");
            for (nic, want) in nics.iter_mut().zip(&mut oracle) {
                while let Some(msg) = pool.pop_front(nic) {
                    assert_eq!(Some(msg), want.pop_front(), "seed {seed} drain");
                }
                assert!(want.is_empty());
            }
            assert!(pool.is_empty());
        }
    }
}
