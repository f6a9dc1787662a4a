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
//! a record. Chunks are 1,024 records because most workloads queue
//! little: with 4,096-record chunks `ur_ugal_1056`'s heap
//! peak rose by 56 KB over the arena-held backlog, with 1,024 it falls by
//! 17.5 KB. A fresh pool owns nothing.
//!
//! [`Packet`]: crate::packet::Packet
//! [`Packet::new`]: crate::packet::Packet::new
//!
//! # The wire form
//!
//! A snapshot stores the backlog as it is held: the `(id, dst, created_ns)`
//! of every queued message, one column each, in global node order and
//! oldest first per NIC ([`crate::checkpoint::BacklogCheckpoint`]), and per
//! NIC a [`NicState`] whose `queued` count says how many of them are its.
//! `Engine::checkpoint` copies the records; no packet is built for a
//! message that has not been injected. `Shard::restore` pushes each NIC's
//! share back into the fresh engine's backlog, after
//! `Engine::check_restorable` has refused a record the NIC could not have
//! generated ([`check_queued`]).

use crate::arena::Chunked;
use crate::config::EngineConfig;
use crate::time::SimTime;
use crate::workload::workload_source;
use dragonfly_topology::ids::NodeId;
use serde::{Deserialize, Serialize};

/// A node's injection state as snapshots store it: the NIC's counters and
/// link state, and how many messages of the snapshot's backlog are its.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NicState {
    /// Messages queued at this NIC: the next this many records of the
    /// snapshot's backlog, oldest first.
    pub queued: usize,
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
    /// queued yet (the caller pushes its share of the backlog).
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

    /// The wire form of this NIC.
    pub(crate) fn to_wire(&self) -> NicState {
        NicState {
            queued: self.backlog(),
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

/// Whether `msg`, a snapshot's record of a message queued at `src`'s NIC,
/// is one that NIC could have generated before the cut at `now`, in a
/// system of `nodes` nodes whose injector has handed out the ids below
/// `next_id`: a destination that exists, a workload id of `src` or an
/// injector id already handed out, and a generation time not after the cut.
/// The error names the message and the column.
pub(crate) fn check_queued(
    msg: Queued,
    src: NodeId,
    nodes: usize,
    now: SimTime,
    next_id: u64,
) -> Result<(), String> {
    let id = msg.id;
    let refuse = |what: String| Err(format!("message {id} has {what}"));
    if msg.dst.index() >= nodes {
        return refuse(format!("dst = {}, outside the {nodes} nodes", msg.dst.0));
    }
    match workload_source(id) {
        Some(node) if node != src.index() as u64 => {
            return refuse(format!("id = {id}, a workload id of node {node}"));
        }
        None if id >= next_id => {
            return refuse(format!(
                "id = {id}, not handed out yet (next_packet_id = {next_id})"
            ));
        }
        _ => {}
    }
    if msg.created_ns > now {
        let created = msg.created_ns;
        return refuse(format!("created_ns = {created}, after the cut at {now} ns"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

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
        use crate::workload::workload_packet_id;
        // What a NIC generates passes; a record it could not have generated
        // is refused by the column that gives it away.
        let src = NodeId(5);
        let check = |msg| check_queued(msg, src, 72, 1_000, 100);
        let workload = workload_packet_id(src, 3);
        for id in [0, 99, workload] {
            let msg = Queued {
                id,
                dst: NodeId(71),
                created_ns: 1_000,
            };
            assert_eq!(check(msg), Ok(()), "id {id}");
        }
        let other = workload_packet_id(NodeId(6), 3);
        for (msg, clue) in [
            (
                (7, NodeId(72), 10),
                "message 7 has dst = 72, outside the 72 nodes".to_string(),
            ),
            (
                (100, NodeId(1), 10),
                "message 100 has id = 100, not handed out yet (next_packet_id = 100)".to_string(),
            ),
            (
                (other, NodeId(1), 10),
                format!("message {other} has id = {other}, a workload id of node 6"),
            ),
            (
                (7, NodeId(1), 1_001),
                "message 7 has created_ns = 1001, after the cut at 1000 ns".to_string(),
            ),
        ] {
            let (id, dst, created_ns) = msg;
            let msg = Queued {
                id,
                dst,
                created_ns,
            };
            assert_eq!(check(msg), Err(clue));
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
