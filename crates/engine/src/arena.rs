//! A slab-style packet arena: the zero-allocation home of every packet in
//! the fabric.
//!
//! The simulation hot path moves one packet per fabric hop between an
//! event, an input buffer and an output queue. Boxing the packet for each
//! hop (the original design) costs one heap allocation, one deallocation
//! and a pointer chase per hop. Instead, every packet lives in one arena
//! slot from injection to delivery and all queues and events carry a
//! 4-byte [`PacketRef`] index. Freed slots are recycled through a LIFO
//! free list, so after warmup the arena performs no allocation at all and
//! reuses the hottest (most recently touched) slots first. A message that
//! has not left its NIC is not a packet yet: it waits as a 24-byte record
//! in the NIC backlog ([`crate::nic`]) and enters the arena at injection.
//!
//! **Storage is chunked** (`Chunked`, shared with the NIC backlog). Slot
//! `i` lives at offset `i % CHUNK_SLOTS` of chunk `i / CHUNK_SLOTS`; a chunk
//! is a fixed 1,024-slot block (64 KB at 64 B per packet) allocated once
//! and never resized. Growing the arena allocates one more chunk and moves
//! no packet. Every shard has an arena, so a chunk is also what a shard's
//! partly filled last block may cost over the one-shard run: 4,096-slot
//! chunks made that 256 KB a shard. One contiguous `Vec<Packet>` instead doubles: while the arena
//! also held the NIC backlog, `adv_qadp_1056` passed 262,144 queued packets
//! and the old 27.3 MB and the new 54.5 MB copy of the same packets were
//! live together — 82 MB of that run's 112 MB heap peak — and an
//! exact-length restored `Vec` made the first allocation after every resume
//! copy the whole arena once more. The price is one more dependent load in
//! [`PacketArena::get`].
//!
//! Chunking is invisible from outside. Slot numbers are the same ones the
//! contiguous arena handed out: fresh slots count up and freed ones come
//! back LIFO, so a restore that allocates a snapshot's packets in walk
//! order into a fresh arena puts them in slots `0..` chunk by chunk.
//!
//! Slot assignment is deterministic: allocation order and the LIFO free
//! list depend only on the event order, which is itself deterministic, so
//! arena indices never introduce run-to-run variation.

use crate::packet::Packet;
use serde::{Deserialize, Serialize};

/// A 4-byte handle to a packet stored in a [`PacketArena`].
///
/// Refs are only meaningful for the arena that issued them and must not be
/// used after [`PacketArena::free`] — debug builds check both liveness and
/// bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PacketRef(pub u32);

impl PacketRef {
    /// The slot index inside the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A growable array stored as fixed blocks of `1 << SHIFT` elements, each
/// allocated once at full size and never resized: growing allocates one
/// more block and moves nothing, so the heap is what is stored plus at most
/// one partly filled block and the block table.
#[derive(Debug)]
pub(crate) struct Chunked<T, const SHIFT: u32> {
    /// Every block is allocated with capacity `1 << SHIFT` and never grows
    /// past it; all but the last are full.
    chunks: Vec<Vec<T>>,
    /// Elements stored, over all blocks.
    len: usize,
}

impl<T, const SHIFT: u32> Default for Chunked<T, SHIFT> {
    fn default() -> Self {
        Self {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T, const SHIFT: u32> Chunked<T, SHIFT> {
    const SLOTS: usize = 1 << SHIFT;

    /// Elements stored.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append `value`, opening a block when the last one is full; returns
    /// its index.
    #[inline]
    pub(crate) fn push(&mut self, value: T) -> usize {
        let chunk = self.len >> SHIFT;
        if chunk == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(Self::SLOTS));
        }
        self.chunks[chunk].push(value);
        self.len += 1;
        self.len - 1
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> &T {
        &self.chunks[i >> SHIFT][i & (Self::SLOTS - 1)]
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i >> SHIFT][i & (Self::SLOTS - 1)]
    }

    /// Heap footprint in bytes: the blocks and the block table.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.chunks
            .iter()
            .map(|c| c.capacity() * size_of::<T>())
            .sum::<usize>()
            + self.chunks.capacity() * size_of::<Vec<T>>()
    }
}

/// log2 of [`CHUNK_SLOTS`].
const CHUNK_SHIFT: u32 = 10;

/// Slots per storage chunk (see the module docs).
pub const CHUNK_SLOTS: usize = 1 << CHUNK_SHIFT;

/// End of the free list.
const NIL: u32 = u32::MAX;

/// Slab of in-flight packets with a LIFO free list.
///
/// The free list is threaded through the freed slots themselves: a freed
/// slot's `id` holds the next free slot (its other contents are stale and
/// never read), so the list costs no memory of its own.
#[derive(Debug)]
pub struct PacketArena {
    /// Every slot ever created.
    slots: Chunked<Packet, CHUNK_SHIFT>,
    /// The most recently freed slot, or [`NIL`].
    free: u32,
    /// Slots on the free list.
    free_len: usize,
    /// Liveness mirror for use-after-free detection in debug builds.
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl Default for PacketArena {
    fn default() -> Self {
        Self {
            slots: Chunked::default(),
            free: NIL,
            free_len: 0,
            #[cfg(debug_assertions)]
            live: Vec::new(),
        }
    }
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `packet`, reusing a freed slot when one is available.
    #[inline]
    pub fn alloc(&mut self, packet: Packet) -> PacketRef {
        match self.free {
            NIL => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&slot| slot < NIL)
                    .expect("packet arena exceeded u32::MAX - 1 live packets");
                self.slots.push(packet);
                #[cfg(debug_assertions)]
                self.live.push(true);
                PacketRef(slot)
            }
            slot => {
                let r = PacketRef(slot);
                #[cfg(debug_assertions)]
                {
                    self.live[r.index()] = true;
                }
                let home = self.slots.get_mut(r.index());
                self.free = home.id as u32;
                self.free_len -= 1;
                *home = packet;
                r
            }
        }
    }

    /// Borrow the packet behind `r`.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[r.index()], "read of freed packet slot {}", r.0);
        self.slots.get(r.index())
    }

    /// Mutably borrow the packet behind `r`.
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[r.index()], "write to freed packet slot {}", r.0);
        self.slots.get_mut(r.index())
    }

    /// Return `r`'s slot to the free list. The packet's `id` becomes the
    /// list's link; the rest is left in place and overwritten by the next
    /// [`PacketArena::alloc`] that reuses the slot.
    #[inline]
    pub fn free(&mut self, r: PacketRef) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.live[r.index()], "double free of packet slot {}", r.0);
            self.live[r.index()] = false;
        }
        self.slots.get_mut(r.index()).id = u64::from(self.free);
        self.free = r.0;
        self.free_len += 1;
    }

    /// Packets currently alive in the arena.
    pub fn live_count(&self) -> usize {
        self.slots.len() - self.free_len
    }

    /// Total slots ever created (the high-water mark of concurrently live
    /// packets).
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }

    /// Heap footprint of the arena in bytes (chunks and the chunk table),
    /// for the bounded-memory accounting of the scale benches. Bounded by
    /// the peak number of concurrently live packets, not by the number of
    /// packets ever delivered.
    pub fn memory_bytes(&self) -> usize {
        self.slots.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::ids::NodeId;
    use dragonfly_topology::Dragonfly;

    fn packet(id: u64) -> Packet {
        thread_local! {
            static TOPO: Dragonfly = Dragonfly::new(DragonflyConfig::tiny());
        }
        TOPO.with(|topo| Packet::new(topo, id, NodeId(0), NodeId(1), 0))
    }

    #[test]
    fn alloc_get_free_round_trip() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(packet(1));
        let b = arena.alloc(packet(2));
        assert_eq!(arena.get(a).id, 1);
        assert_eq!(arena.get(b).id, 2);
        assert_eq!(arena.live_count(), 2);
        arena.get_mut(a).hops = 3;
        assert_eq!(arena.get(a).hops, 3);
        arena.free(a);
        assert_eq!(arena.live_count(), 1);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(packet(1));
        let b = arena.alloc(packet(2));
        arena.free(a);
        arena.free(b);
        // LIFO: the most recently freed slot comes back first.
        let c = arena.alloc(packet(3));
        assert_eq!(c, b);
        let d = arena.alloc(packet(4));
        assert_eq!(d, a);
        assert_eq!(arena.high_water(), 2, "no growth while slots are free");
        assert_eq!(arena.get(c).id, 3);
        assert_eq!(arena.get(d).id, 4);
    }

    #[test]
    fn high_water_tracks_peak_live_packets() {
        let mut arena = PacketArena::new();
        let refs: Vec<PacketRef> = (0..4).map(|i| arena.alloc(packet(i))).collect();
        for r in &refs {
            arena.free(*r);
        }
        for i in 0..4 {
            arena.alloc(packet(10 + i));
        }
        assert_eq!(arena.high_water(), 4);
        assert_eq!(arena.live_count(), 4);
    }

    #[test]
    fn chunk_boundaries_are_invisible() {
        // Slots count up across chunks, and freed slots on either side of a
        // boundary come back LIFO.
        let total = CHUNK_SLOTS + 2;
        let arena = &mut PacketArena::new();
        for i in arena.high_water()..total {
            assert_eq!(arena.alloc(packet(i as u64)), PacketRef(i as u32));
        }
        assert!((0..total).all(|i| arena.get(PacketRef(i as u32)).id == i as u64));
        arena.free(PacketRef(CHUNK_SLOTS as u32));
        arena.free(PacketRef(3));
        assert_eq!(arena.live_count(), total - 2);
        assert_eq!(arena.alloc(packet(100)), PacketRef(3));
        assert_eq!(arena.alloc(packet(101)), PacketRef(CHUNK_SLOTS as u32));
        assert_eq!(arena.alloc(packet(102)), PacketRef(total as u32));
        assert_eq!(arena.get(PacketRef(CHUNK_SLOTS as u32)).id, 101);
        assert_eq!(
            arena.get(PacketRef(CHUNK_SLOTS as u32 + 1)).id,
            total as u64 - 1
        );
    }
}
