//! Per-router simulated state: input buffers, output queues, credits,
//! link serialisation and blocked-packet wait lists.
//!
//! # Layout
//!
//! A router is two flat arrays of small structs and one link pool,
//! whatever its radix:
//!
//! * one [`Cell`] per `(port, vc)`, flattened to `port * num_vcs + vc`
//!   (24 B): the input FIFO and the output FIFO as head/tail indices into
//!   the pool, the output queue's length, the credits towards the
//!   downstream input buffer, and the cell's link on a wait list;
//! * one [`PortState`] per port (24 B): when the outgoing link frees, the
//!   port's output occupancy summed over VCs, the head and tail of its
//!   wait list, the VC round-robin pointer, the pending-`OutputAttempt`
//!   flag and whether the port faces a host;
//! * one pool of 8-byte links (a 4-byte arena handle and the index of the
//!   next link) shared by every FIFO of the router, whose freed links are
//!   reused LIFO.
//!
//! A fresh router costs `cells × 24 B + ports × 24 B` — 7,344 B for the
//! radix-51, 5-VC router of the 110,976-node Dragonfly — and grows by 8 B
//! per packet at the most packets it ever buffered at once. After that a
//! hop allocates nothing.
//!
//! **Why a pool and not a deque per queue.** The layout this replaces held
//! 255 input and 255 output `VecDeque`s (32 B each, empty or not), 51
//! waiter deques, `usize` credits and nine parallel per-port or per-cell
//! `Vec`s: ~21.7 KB per router before a packet moved, so 6,936 routers ×
//! ~21.7 KB = 151 MB of the 196 MB heap peak of the 110,976-node workload,
//! and every snapshot cloned all of it before encoding. Creating deques
//! lazily would still keep a 32-byte header plus a buffer for every queue
//! ever touched, and at 1,056 nodes that is every queue.
//!
//! **The wire form is the former struct.** [`RouterState`] serialises
//! through the private `wire::RouterState`, which holds the former twelve
//! fields with their names, types and order, so snapshots keep their
//! bytes. Conversion runs one router at a time, so encoding or decoding
//! holds one router's worth of deques at once. Decoding refuses what the
//! compact form cannot hold or what would crash the resumed run —
//! inconsistent lengths, out-of-range or unflagged waiters, an
//! `output_occupancy` that is not the sum of its queues, counters beyond
//! 16 bits — with an error naming the router and the field.

use crate::arena::PacketRef;
use crate::config::EngineConfig;
use crate::time::SimTime;
use dragonfly_topology::ids::{Port, RouterId};
use dragonfly_topology::ports::PortKind;
use dragonfly_topology::{AnyTopology, Topology};
use serde::{Deserialize, Emitter, Error, Serialize, Source};
use std::collections::VecDeque;

/// A blocked input VC waiting for space in some output queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Waiter {
    /// Input port whose head-of-line packet is blocked.
    pub in_port: Port,
    /// Input VC whose head-of-line packet is blocked.
    pub vc: u8,
}

/// End of a list, and both ends of an empty one.
const NIL: u32 = u32::MAX;

/// [`Cell::waiter_next`] of an input VC that sits on no wait list.
const NOT_WAITING: u32 = u32::MAX - 1;

/// A FIFO threaded through indices: pool links for packet queues, cells
/// for wait lists.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
    };
}

/// What a router keeps per `(port, vc)`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Input buffer.
    input: Fifo,
    /// Output queue.
    output: Fifo,
    /// Packets in `output`.
    output_len: u16,
    /// Credits available towards the downstream input buffer. Host
    /// (ejection) ports are not credit limited.
    credits: u16,
    /// The next input VC on the wait list this one sits on (`NIL` if it is
    /// the last), or `NOT_WAITING`.
    waiter_next: u32,
}

/// What a router keeps per port.
#[derive(Debug, Clone, Copy)]
struct PortState {
    /// Time at which the outgoing link finishes serialising its current
    /// packet.
    link_free_at: SimTime,
    /// Packets in the port's output queues, summed over VCs.
    occupancy: u32,
    /// Input VCs blocked on a full output queue of this port, as cells.
    waiters: Fifo,
    /// Round-robin pointer over VCs.
    vc_rr: u8,
    /// Whether an `OutputAttempt` event is already pending (avoids
    /// flooding the event queue with duplicates).
    output_event_pending: bool,
    /// Host ports for ejection do not consume credits.
    is_host: bool,
}

/// One buffered packet and the link after it in its FIFO (or, while the
/// link is free, the next free link).
#[derive(Debug, Clone, Copy)]
struct Link {
    packet: PacketRef,
    next: u32,
}

/// The links of every packet FIFO of one router, with a LIFO free list
/// threaded through `next`.
#[derive(Debug, Clone)]
struct LinkPool {
    links: Vec<Link>,
    free: u32,
}

impl LinkPool {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            links: Vec::with_capacity(capacity),
            free: NIL,
        }
    }

    fn alloc(&mut self, packet: PacketRef, next: u32) -> u32 {
        let link = Link { packet, next };
        match self.free {
            NIL => {
                let i = u32::try_from(self.links.len())
                    .ok()
                    .filter(|&i| i < NOT_WAITING)
                    .expect("a router buffered more than 2^32 - 2 packets");
                self.links.push(link);
                i
            }
            i => {
                self.free = self.links[i as usize].next;
                self.links[i as usize] = link;
                i
            }
        }
    }

    fn push_back(&mut self, q: &mut Fifo, packet: PacketRef) {
        let i = self.alloc(packet, NIL);
        match q.tail {
            NIL => q.head = i,
            tail => self.links[tail as usize].next = i,
        }
        q.tail = i;
    }

    fn push_front(&mut self, q: &mut Fifo, packet: PacketRef) {
        let i = self.alloc(packet, q.head);
        if q.tail == NIL {
            q.tail = i;
        }
        q.head = i;
    }

    fn pop_front(&mut self, q: &mut Fifo) -> Option<PacketRef> {
        let i = q.head;
        if i == NIL {
            return None;
        }
        let Link { packet, next } = self.links[i as usize];
        q.head = next;
        if next == NIL {
            q.tail = NIL;
        }
        self.links[i as usize].next = self.free;
        self.free = i;
        Some(packet)
    }

    /// The packets of `q`, head first.
    fn iter(&self, q: Fifo) -> impl Iterator<Item = PacketRef> + '_ {
        std::iter::successors((q.head != NIL).then_some(q.head), |&i| {
            let next = self.links[i as usize].next;
            (next != NIL).then_some(next)
        })
        .map(|i| self.links[i as usize].packet)
    }

    /// Rewrite the packets of `q` in place, head first.
    fn map(&mut self, q: Fifo, f: &mut impl FnMut(PacketRef) -> PacketRef) {
        let mut i = q.head;
        while i != NIL {
            let link = &mut self.links[i as usize];
            link.packet = f(link.packet);
            i = link.next;
        }
    }
}

/// `value` as one of a router's 16-bit counters. [`EngineConfig::validate`]
/// refuses every configuration this panics on.
fn counter(value: usize, field: &str) -> u16 {
    u16::try_from(value).unwrap_or_else(|_| {
        panic!("{field} = {value} exceeds a router's 16-bit counters (at most 65,535)")
    })
}

/// All mutable state of one simulated router.
#[derive(Debug, Clone)]
pub struct RouterState {
    num_vcs: usize,
    /// Per `(port, vc)`, `port * num_vcs + vc`.
    cells: Vec<Cell>,
    ports: Vec<PortState>,
    /// The links of every FIFO in `cells`. They carry 4-byte arena
    /// handles; the packets themselves live in the engine's
    /// [`crate::arena::PacketArena`].
    pool: LinkPool,
}

impl RouterState {
    /// Create the state for one specific router (port counts and host
    /// flags are per-router: a fat-tree core has no host ports).
    pub fn new(topo: &AnyTopology, router: RouterId, cfg: &EngineConfig) -> Self {
        // Output-queue lengths are 16-bit counters too.
        counter(cfg.output_queue_packets, "output_queue_packets");
        let num_ports = topo.radix(router);
        let cell = Cell {
            input: Fifo::EMPTY,
            output: Fifo::EMPTY,
            output_len: 0,
            credits: counter(cfg.vc_buffer_packets, "vc_buffer_packets"),
            waiter_next: NOT_WAITING,
        };
        Self {
            num_vcs: cfg.num_vcs,
            cells: vec![cell; num_ports * cfg.num_vcs],
            ports: (0..num_ports)
                .map(|p| PortState {
                    link_free_at: 0,
                    occupancy: 0,
                    waiters: Fifo::EMPTY,
                    vc_rr: 0,
                    output_event_pending: false,
                    is_host: topo.port_kind(router, Port::from_index(p)) == PortKind::Host,
                })
                .collect(),
            pool: LinkPool::with_capacity(0),
        }
    }

    /// Heap footprint of this router's buffers, credits and wait lists in
    /// bytes (capacities, not occupancy), excluding the struct itself.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cells.capacity() * size_of::<Cell>()
            + self.ports.capacity() * size_of::<PortState>()
            + self.pool.links.capacity() * size_of::<Link>()
    }

    #[inline]
    fn cell(&self, port: Port, vc: u8) -> usize {
        debug_assert!(port.index() < self.ports.len());
        debug_assert!((vc as usize) < self.num_vcs);
        port.index() * self.num_vcs + vc as usize
    }

    /// Number of ports.
    #[inline]
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Number of VCs.
    #[inline]
    pub fn num_vcs(&self) -> usize {
        self.num_vcs
    }

    // ------------------------------------------------------------------
    // Input buffers
    // ------------------------------------------------------------------

    /// Push an arriving packet into an input buffer. Returns whether the
    /// buffer was empty before.
    pub fn push_input(
        &mut self,
        port: Port,
        vc: u8,
        packet: PacketRef,
        cfg: &EngineConfig,
    ) -> bool {
        let cell = self.cell(port, vc);
        let input = &mut self.cells[cell].input;
        debug_assert!(
            self.pool.iter(*input).count() < cfg.vc_buffer_packets,
            "credit flow control must prevent input buffer overflow"
        );
        let was_empty = input.head == NIL;
        self.pool.push_back(input, packet);
        was_empty
    }

    /// Handle of the packet at the head of an input buffer.
    pub fn input_head(&self, port: Port, vc: u8) -> Option<PacketRef> {
        self.pool.iter(self.cells[self.cell(port, vc)].input).next()
    }

    /// Pop the head of an input buffer.
    pub fn pop_input(&mut self, port: Port, vc: u8) -> Option<PacketRef> {
        let cell = self.cell(port, vc);
        self.pool.pop_front(&mut self.cells[cell].input)
    }

    /// Put a packet back at the *front* of an input buffer (used when a
    /// switch attempt finds the target output queue full and the packet has
    /// to keep waiting as the head-of-line packet).
    pub fn push_input_front(&mut self, port: Port, vc: u8, packet: PacketRef) {
        let cell = self.cell(port, vc);
        self.pool.push_front(&mut self.cells[cell].input, packet);
    }

    // ------------------------------------------------------------------
    // Output queues
    // ------------------------------------------------------------------

    /// Total occupancy of a port's output queues (sum over VCs).
    #[inline]
    pub fn output_queue_len(&self, port: Port) -> usize {
        self.ports[port.index()].occupancy as usize
    }

    /// Whether the `(port, vc)` output queue can accept another packet.
    pub fn output_has_space(&self, port: Port, vc: u8, cfg: &EngineConfig) -> bool {
        (self.cells[self.cell(port, vc)].output_len as usize) < cfg.output_queue_packets
    }

    /// Push a packet into an output queue.
    pub fn push_output(&mut self, port: Port, vc: u8, packet: PacketRef) {
        let cell = self.cell(port, vc);
        let cell = &mut self.cells[cell];
        self.pool.push_back(&mut cell.output, packet);
        cell.output_len += 1;
        self.ports[port.index()].occupancy += 1;
    }

    /// Pop a packet from an output queue.
    pub fn pop_output(&mut self, port: Port, vc: u8) -> Option<PacketRef> {
        let cell = self.cell(port, vc);
        let cell = &mut self.cells[cell];
        let p = self.pool.pop_front(&mut cell.output);
        if p.is_some() {
            cell.output_len -= 1;
            self.ports[port.index()].occupancy -= 1;
        }
        p
    }

    /// Select the next output VC to serve on `port`, round-robin, requiring
    /// a non-empty queue and (for fabric ports) an available credit.
    /// Advances the round-robin pointer when a VC is selected.
    pub fn select_output_vc(&mut self, port: Port) -> Option<u8> {
        let state = self.ports[port.index()];
        let start = state.vc_rr as usize;
        for off in 0..self.num_vcs {
            let vc = ((start + off) % self.num_vcs) as u8;
            let cell = &self.cells[self.cell(port, vc)];
            if cell.output_len == 0 {
                continue;
            }
            if !state.is_host && cell.credits == 0 {
                continue;
            }
            self.ports[port.index()].vc_rr = ((vc as usize + 1) % self.num_vcs) as u8;
            return Some(vc);
        }
        None
    }

    // ------------------------------------------------------------------
    // Credits
    // ------------------------------------------------------------------

    /// Credits currently available for `(port, vc)`.
    pub fn credits(&self, port: Port, vc: u8) -> usize {
        self.cells[self.cell(port, vc)].credits as usize
    }

    /// Consume one credit (a packet is being sent downstream).
    pub fn consume_credit(&mut self, port: Port, vc: u8) {
        let cell = self.cell(port, vc);
        debug_assert!(self.cells[cell].credits > 0, "sent without a credit");
        self.cells[cell].credits -= 1;
    }

    /// Return one credit (the downstream buffer freed a slot).
    pub fn return_credit(&mut self, port: Port, vc: u8, cfg: &EngineConfig) {
        let cell = self.cell(port, vc);
        self.cells[cell].credits += 1;
        debug_assert!(
            self.cells[cell].credits as usize <= cfg.vc_buffer_packets,
            "credit overflow"
        );
    }

    /// Credits consumed on a port (summed over VCs); host ports report 0.
    pub fn used_credits(&self, port: Port, cfg: &EngineConfig) -> usize {
        if self.ports[port.index()].is_host {
            return 0;
        }
        (0..self.num_vcs as u8)
            .map(|vc| cfg.vc_buffer_packets - self.credits(port, vc))
            .sum()
    }

    // ------------------------------------------------------------------
    // Link serialisation bookkeeping
    // ------------------------------------------------------------------

    /// Time the outgoing link of `port` becomes free.
    pub fn link_free_at(&self, port: Port) -> SimTime {
        self.ports[port.index()].link_free_at
    }

    /// Mark the outgoing link of `port` busy until `t`.
    pub fn set_link_busy_until(&mut self, port: Port, t: SimTime) {
        self.ports[port.index()].link_free_at = t;
    }

    /// Whether an `OutputAttempt` is already scheduled for `port`.
    pub fn output_event_pending(&self, port: Port) -> bool {
        self.ports[port.index()].output_event_pending
    }

    /// Mark/unmark the pending `OutputAttempt` flag for `port`.
    pub fn set_output_event_pending(&mut self, port: Port, pending: bool) {
        self.ports[port.index()].output_event_pending = pending;
    }

    // ------------------------------------------------------------------
    // Blocked-input wait lists
    // ------------------------------------------------------------------

    /// Register an input VC as waiting for space in `out_port`'s queue.
    /// Idempotent per input VC.
    pub fn add_waiter(&mut self, out_port: Port, waiter: Waiter) {
        let cell = self.cell(waiter.in_port, waiter.vc);
        if self.cells[cell].waiter_next != NOT_WAITING {
            return;
        }
        self.cells[cell].waiter_next = NIL;
        let list = &mut self.ports[out_port.index()].waiters;
        match list.tail {
            NIL => list.head = cell as u32,
            tail => self.cells[tail as usize].waiter_next = cell as u32,
        }
        list.tail = cell as u32;
    }

    /// Pop the next waiter of `out_port`, clearing its waiting flag.
    pub fn pop_waiter(&mut self, out_port: Port) -> Option<Waiter> {
        let list = &mut self.ports[out_port.index()].waiters;
        let cell = list.head;
        if cell == NIL {
            return None;
        }
        let next = std::mem::replace(&mut self.cells[cell as usize].waiter_next, NOT_WAITING);
        list.head = next;
        if next == NIL {
            list.tail = NIL;
        }
        Some(self.waiter(cell))
    }

    /// The input VC of `cell`.
    fn waiter(&self, cell: u32) -> Waiter {
        let cell = cell as usize;
        Waiter {
            in_port: Port::from_index(cell / self.num_vcs),
            vc: (cell % self.num_vcs) as u8,
        }
    }

    /// Number of packets currently buffered in this router (inputs +
    /// outputs), used by drain checks and tests.
    pub fn buffered_packets(&self) -> usize {
        self.cells
            .iter()
            .map(|c| self.pool.iter(c.input).count() + c.output_len as usize)
            .sum()
    }

    /// Rewrite every buffered [`PacketRef`] in place, visiting input
    /// cells then output cells in `(port, vc)` index order.
    ///
    /// This order is part of the checkpoint format: it is phase 1 of the
    /// canonical walk ([`crate::checkpoint`]), which numbers the arena slots
    /// of a snapshot when it is written and when it is restored.
    pub fn map_packet_refs(&mut self, f: &mut impl FnMut(PacketRef) -> PacketRef) {
        for cell in &self.cells {
            self.pool.map(cell.input, f);
        }
        for cell in &self.cells {
            self.pool.map(cell.output, f);
        }
    }

    /// Every buffered [`PacketRef`] in [`RouterState::map_packet_refs`]
    /// order, each with the wire field, port and VC that hold it.
    pub(crate) fn packet_refs(
        &self,
    ) -> impl Iterator<Item = (&'static str, Port, u8, PacketRef)> + '_ {
        let queue = move |field, i: usize, q| {
            let (port, vc) = (Port::from_index(i / self.num_vcs), (i % self.num_vcs) as u8);
            self.pool.iter(q).map(move |r| (field, port, vc, r))
        };
        let cells = || self.cells.iter().enumerate();
        let input = cells().flat_map(move |(i, c)| queue("input", i, c.input));
        let output = cells().flat_map(move |(i, c)| queue("output", i, c.output));
        input.chain(output)
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Whether this state, read from a snapshot, fits a router with
    /// `num_ports` ports under `cfg`. The error names the field.
    pub(crate) fn check_fits(&self, num_ports: usize, cfg: &EngineConfig) -> Result<(), String> {
        if self.num_ports() != num_ports {
            return Err(format!(
                "num_ports = {}, the topology gives this router {num_ports}",
                self.num_ports()
            ));
        }
        if self.num_vcs != cfg.num_vcs {
            return Err(format!(
                "num_vcs = {}, the engine runs {}",
                self.num_vcs, cfg.num_vcs
            ));
        }
        match self
            .cells
            .iter()
            .position(|c| c.credits as usize > cfg.vc_buffer_packets)
        {
            Some(i) => Err(format!(
                "credits[{i}] = {}, above vc_buffer_packets = {}",
                self.cells[i].credits, cfg.vc_buffer_packets
            )),
            None => Ok(()),
        }
    }

    fn to_wire(&self) -> wire::RouterState {
        let queue = |q: Fifo| self.pool.iter(q).collect::<VecDeque<_>>();
        let waiters = |q: Fifo| {
            std::iter::successors((q.head != NIL).then_some(q.head), |&c| {
                let next = self.cells[c as usize].waiter_next;
                (next != NIL).then_some(next)
            })
            .map(|c| self.waiter(c))
            .collect()
        };
        wire::RouterState {
            num_ports: self.num_ports(),
            num_vcs: self.num_vcs,
            input: self.cells.iter().map(|c| queue(c.input)).collect(),
            output: self.cells.iter().map(|c| queue(c.output)).collect(),
            credits: self.cells.iter().map(|c| c.credits as usize).collect(),
            output_occupancy: self.ports.iter().map(|p| p.occupancy as usize).collect(),
            link_free_at: self.ports.iter().map(|p| p.link_free_at).collect(),
            output_event_pending: self.ports.iter().map(|p| p.output_event_pending).collect(),
            waiters: self.ports.iter().map(|p| waiters(p.waiters)).collect(),
            vc_rr: self.ports.iter().map(|p| p.vc_rr).collect(),
            waiting_flag: self
                .cells
                .iter()
                .map(|c| c.waiter_next != NOT_WAITING)
                .collect(),
            port_is_host: self.ports.iter().map(|p| p.is_host).collect(),
        }
    }

    fn from_wire(w: wire::RouterState) -> Result<Self, String> {
        let (num_ports, num_vcs) = (w.num_ports, w.num_vcs);
        if num_ports > 1 << 16 {
            return Err(format!("num_ports = {num_ports}, above 65,536"));
        }
        if !(1..=256).contains(&num_vcs) {
            return Err(format!("num_vcs = {num_vcs}, not in 1..=256"));
        }
        let cells = num_ports * num_vcs;
        for (field, len, want) in [
            ("input", w.input.len(), cells),
            ("output", w.output.len(), cells),
            ("credits", w.credits.len(), cells),
            ("output_occupancy", w.output_occupancy.len(), num_ports),
            ("link_free_at", w.link_free_at.len(), num_ports),
            (
                "output_event_pending",
                w.output_event_pending.len(),
                num_ports,
            ),
            ("waiters", w.waiters.len(), num_ports),
            ("vc_rr", w.vc_rr.len(), num_ports),
            ("waiting_flag", w.waiting_flag.len(), cells),
            ("port_is_host", w.port_is_host.len(), num_ports),
        ] {
            if len != want {
                return Err(format!(
                    "{field} holds {len} entries, {num_ports} ports × {num_vcs} VCs need {want}"
                ));
            }
        }

        let packets: usize = w.input.iter().chain(&w.output).map(VecDeque::len).sum();
        let mut state = Self {
            num_vcs,
            cells: Vec::with_capacity(cells),
            ports: Vec::with_capacity(num_ports),
            pool: LinkPool::with_capacity(packets),
        };
        for (c, (input, output)) in w.input.iter().zip(&w.output).enumerate() {
            let mut cell = Cell {
                input: Fifo::EMPTY,
                output: Fifo::EMPTY,
                output_len: u16::try_from(output.len()).map_err(|_| {
                    format!("output[{c}] holds {} packets, above 65,535", output.len())
                })?,
                credits: u16::try_from(w.credits[c])
                    .map_err(|_| format!("credits[{c}] = {}, above 65,535", w.credits[c]))?,
                waiter_next: NOT_WAITING,
            };
            for &packet in input {
                state.pool.push_back(&mut cell.input, packet);
            }
            for &packet in output {
                state.pool.push_back(&mut cell.output, packet);
            }
            state.cells.push(cell);
        }
        for p in 0..num_ports {
            let queued: u32 = state.cells[p * num_vcs..(p + 1) * num_vcs]
                .iter()
                .map(|c| c.output_len as u32)
                .sum();
            if w.output_occupancy[p] != queued as usize {
                return Err(format!(
                    "output_occupancy[{p}] = {}, but the port's output queues hold {queued}",
                    w.output_occupancy[p]
                ));
            }
            state.ports.push(PortState {
                link_free_at: w.link_free_at[p],
                occupancy: queued,
                waiters: Fifo::EMPTY,
                vc_rr: w.vc_rr[p],
                output_event_pending: w.output_event_pending[p],
                is_host: w.port_is_host[p],
            });
        }

        let mut listed = 0;
        for (p, list) in w.waiters.iter().enumerate() {
            for &waiter in list {
                let (in_port, vc) = (waiter.in_port.index(), waiter.vc as usize);
                if in_port >= num_ports || vc >= num_vcs {
                    return Err(format!(
                        "waiters[{p}] lists input port {in_port} VC {vc}, outside \
                         {num_ports} ports × {num_vcs} VCs"
                    ));
                }
                let cell = in_port * num_vcs + vc;
                if !w.waiting_flag[cell] || state.cells[cell].waiter_next != NOT_WAITING {
                    return Err(format!(
                        "waiters[{p}] lists input port {in_port} VC {vc}, which waiting_flag \
                         does not mark or an earlier entry already lists"
                    ));
                }
                state.add_waiter(Port::from_index(p), waiter);
                listed += 1;
            }
        }
        let flagged = w.waiting_flag.iter().filter(|&&f| f).count();
        if flagged != listed {
            return Err(format!(
                "waiting_flag marks {flagged} input VCs, waiters lists {listed}"
            ));
        }
        Ok(state)
    }
}

impl Serialize for RouterState {
    fn serialize(&self, out: &mut dyn Emitter) {
        self.to_wire().serialize(out)
    }
}

impl Deserialize for RouterState {
    fn deserialize(src: &mut dyn Source) -> Result<Self, Error> {
        Self::from_wire(wire::RouterState::deserialize(src)?).map_err(Error)
    }

    /// A snapshot's router list; an error names the router.
    fn deserialize_vec(src: &mut dyn Source) -> Result<Vec<Self>, Error> {
        let n = src.seq_begin()?;
        let mut routers = Vec::new();
        serde::reserve(&mut routers, n)?;
        for r in 0..n {
            let router = Self::deserialize(src)
                .map_err(|e| Error(format!("state of router {r}: {}", e.0)))?;
            routers.push(router);
        }
        src.seq_end()?;
        Ok(routers)
    }
}

/// The wire form of a router: the layout [`RouterState`] had while it kept
/// one `VecDeque` per queue, field for field, so snapshots keep their
/// bytes (and serde errors keep its name).
mod wire {
    use super::Waiter;
    use crate::arena::PacketRef;
    use crate::time::SimTime;
    use serde::{Deserialize, Serialize};
    use std::collections::VecDeque;

    #[derive(Serialize, Deserialize)]
    pub(super) struct RouterState {
        pub(super) num_ports: usize,
        pub(super) num_vcs: usize,
        /// Input buffers, `port * num_vcs + vc`.
        pub(super) input: Vec<VecDeque<PacketRef>>,
        /// Output queues, `port * num_vcs + vc`.
        pub(super) output: Vec<VecDeque<PacketRef>>,
        /// Credits towards the downstream input buffer, `port * num_vcs + vc`.
        pub(super) credits: Vec<usize>,
        /// Per-port occupancy of the output queues (sum over VCs).
        pub(super) output_occupancy: Vec<usize>,
        pub(super) link_free_at: Vec<SimTime>,
        pub(super) output_event_pending: Vec<bool>,
        /// Input VCs blocked on a full output queue, per output port.
        pub(super) waiters: Vec<VecDeque<Waiter>>,
        pub(super) vc_rr: Vec<u8>,
        /// Whether each input VC currently sits on some waiter list.
        pub(super) waiting_flag: Vec<bool>,
        pub(super) port_is_host: Vec<bool>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;

    fn setup() -> (AnyTopology, EngineConfig, RouterState) {
        let topo = AnyTopology::from(dragonfly_topology::Dragonfly::new(DragonflyConfig::tiny()));
        let cfg = EngineConfig::paper(3);
        let state = RouterState::new(&topo, RouterId(0), &cfg);
        (topo, cfg, state)
    }

    /// Router queues only move opaque arena handles; tests can mint them
    /// directly without an arena.
    fn packet(id: u32) -> PacketRef {
        PacketRef(id)
    }

    #[test]
    fn input_buffers_are_fifo() {
        let (_t, cfg, mut s) = setup();
        let port = Port(2);
        assert!(s.push_input(port, 0, packet(1), &cfg));
        assert!(!s.push_input(port, 0, packet(2), &cfg));
        assert_eq!(s.buffered_packets(), 2);
        assert_eq!(s.input_head(port, 0).unwrap(), packet(1));
        assert_eq!(s.pop_input(port, 0).unwrap(), packet(1));
        assert_eq!(s.pop_input(port, 0).unwrap(), packet(2));
        assert!(s.pop_input(port, 0).is_none());
    }

    #[test]
    fn output_occupancy_tracks_pushes_and_pops() {
        let (_t, cfg, mut s) = setup();
        let port = Port(3);
        s.push_output(port, 0, packet(1));
        s.push_output(port, 1, packet(2));
        assert_eq!(s.output_queue_len(port), 2);
        for _ in 1..cfg.output_queue_packets {
            s.push_output(port, 0, packet(3));
        }
        assert!(!s.output_has_space(port, 0, &cfg), "VC 0 is full");
        assert!(s.output_has_space(port, 1, &cfg), "VC 1 holds one");
        assert_eq!(s.output_queue_len(port), cfg.output_queue_packets + 1);
        while s.pop_output(port, 0).is_some() {}
        assert_eq!(s.output_queue_len(port), 1);
        s.pop_output(port, 1);
        assert_eq!(s.output_queue_len(port), 0);
    }

    #[test]
    fn credits_consume_and_return() {
        let (_t, cfg, mut s) = setup();
        let port = Port(4);
        assert_eq!(s.credits(port, 1), cfg.vc_buffer_packets);
        s.consume_credit(port, 1);
        s.consume_credit(port, 1);
        assert_eq!(s.credits(port, 1), cfg.vc_buffer_packets - 2);
        assert_eq!(s.used_credits(port, &cfg), 2);
        s.return_credit(port, 1, &cfg);
        assert_eq!(s.credits(port, 1), cfg.vc_buffer_packets - 1);
    }

    #[test]
    fn host_ports_report_zero_used_credits() {
        let (_t, cfg, mut s) = setup();
        let host = Port(0);
        s.consume_credit(host, 0);
        assert_eq!(s.used_credits(host, &cfg), 0);
    }

    #[test]
    fn select_output_vc_skips_creditless_vcs() {
        let (_t, cfg, mut s) = setup();
        let port = Port(2); // fabric port on the tiny config (p=2)
        s.push_output(port, 0, packet(1));
        s.push_output(port, 1, packet(2));
        // Exhaust credits on VC0.
        for _ in 0..cfg.vc_buffer_packets {
            s.consume_credit(port, 0);
        }
        assert_eq!(s.select_output_vc(port), Some(1));
        // Host ports ignore credits entirely.
        let host = Port(0);
        s.push_output(host, 0, packet(3));
        for _ in 0..cfg.vc_buffer_packets {
            s.consume_credit(host, 0);
        }
        assert_eq!(s.select_output_vc(host), Some(0));
    }

    #[test]
    fn select_output_vc_round_robins() {
        let (_t, _cfg, mut s) = setup();
        let port = Port(2);
        s.push_output(port, 0, packet(1));
        s.push_output(port, 1, packet(2));
        s.push_output(port, 2, packet(3));
        let first = s.select_output_vc(port).unwrap();
        s.pop_output(port, first);
        let second = s.select_output_vc(port).unwrap();
        assert_ne!(first, second, "round robin must rotate across VCs");
    }

    #[test]
    fn waiters_are_deduplicated() {
        let (_t, _cfg, mut s) = setup();
        let out = Port(3);
        let w = Waiter {
            in_port: Port(2),
            vc: 0,
        };
        s.add_waiter(out, w);
        s.add_waiter(out, w);
        assert_eq!(s.pop_waiter(out), Some(w));
        assert_eq!(s.pop_waiter(out), None);
        // After being popped the same VC may wait again.
        s.add_waiter(out, w);
        assert_eq!(s.pop_waiter(out), Some(w));
    }

    #[test]
    fn buffered_packets_counts_both_sides() {
        let (_t, cfg, mut s) = setup();
        s.push_input(Port(2), 0, packet(1), &cfg);
        s.push_output(Port(3), 1, packet(2));
        assert_eq!(s.buffered_packets(), 2);
    }

    // ------------------------------------------------------------------
    // The deque layout as the oracle
    // ------------------------------------------------------------------

    /// The deque-per-queue router this module replaced, method for method:
    /// the wire struct is its state, so the oracle's `to_value()` is what a
    /// snapshot of the compact state must encode.
    impl wire::RouterState {
        fn new(topo: &AnyTopology, router: RouterId, cfg: &EngineConfig) -> Self {
            let num_ports = topo.radix(router);
            let num_vcs = cfg.num_vcs;
            let cells = num_ports * num_vcs;
            let port_is_host = (0..num_ports)
                .map(|p| topo.port_kind(router, Port::from_index(p)) == PortKind::Host)
                .collect();
            Self {
                num_ports,
                num_vcs,
                input: (0..cells).map(|_| VecDeque::new()).collect(),
                output: (0..cells).map(|_| VecDeque::new()).collect(),
                credits: vec![cfg.vc_buffer_packets; cells],
                output_occupancy: vec![0; num_ports],
                link_free_at: vec![0; num_ports],
                output_event_pending: vec![false; num_ports],
                waiters: (0..num_ports).map(|_| VecDeque::new()).collect(),
                vc_rr: vec![0; num_ports],
                waiting_flag: vec![false; cells],
                port_is_host,
            }
        }

        fn cell(&self, port: Port, vc: u8) -> usize {
            port.index() * self.num_vcs + vc as usize
        }

        fn input_buffer_len(&self, port: Port, vc: u8) -> usize {
            self.input[self.cell(port, vc)].len()
        }

        fn push_input(&mut self, port: Port, vc: u8, packet: PacketRef) -> usize {
            let cell = self.cell(port, vc);
            self.input[cell].push_back(packet);
            self.input[cell].len()
        }

        fn input_head(&self, port: Port, vc: u8) -> Option<PacketRef> {
            self.input[self.cell(port, vc)].front().copied()
        }

        fn pop_input(&mut self, port: Port, vc: u8) -> Option<PacketRef> {
            let cell = self.cell(port, vc);
            self.input[cell].pop_front()
        }

        fn push_input_front(&mut self, port: Port, vc: u8, packet: PacketRef) {
            let cell = self.cell(port, vc);
            self.input[cell].push_front(packet);
        }

        fn output_queue_len(&self, port: Port) -> usize {
            self.output_occupancy[port.index()]
        }

        fn output_has_space(&self, port: Port, vc: u8, cfg: &EngineConfig) -> bool {
            self.output[self.cell(port, vc)].len() < cfg.output_queue_packets
        }

        fn push_output(&mut self, port: Port, vc: u8, packet: PacketRef) {
            let cell = self.cell(port, vc);
            self.output[cell].push_back(packet);
            self.output_occupancy[port.index()] += 1;
        }

        fn pop_output(&mut self, port: Port, vc: u8) -> Option<PacketRef> {
            let cell = self.cell(port, vc);
            let p = self.output[cell].pop_front();
            if p.is_some() {
                self.output_occupancy[port.index()] -= 1;
            }
            p
        }

        fn select_output_vc(&mut self, port: Port) -> Option<u8> {
            let start = self.vc_rr[port.index()] as usize;
            let is_host = self.port_is_host[port.index()];
            for off in 0..self.num_vcs {
                let vc = ((start + off) % self.num_vcs) as u8;
                let cell = self.cell(port, vc);
                if self.output[cell].is_empty() {
                    continue;
                }
                if !is_host && self.credits[cell] == 0 {
                    continue;
                }
                self.vc_rr[port.index()] = ((vc as usize + 1) % self.num_vcs) as u8;
                return Some(vc);
            }
            None
        }

        fn credits(&self, port: Port, vc: u8) -> usize {
            self.credits[self.cell(port, vc)]
        }

        fn consume_credit(&mut self, port: Port, vc: u8) {
            let cell = self.cell(port, vc);
            self.credits[cell] -= 1;
        }

        fn return_credit(&mut self, port: Port, vc: u8) {
            let cell = self.cell(port, vc);
            self.credits[cell] += 1;
        }

        fn used_credits(&self, port: Port, cfg: &EngineConfig) -> usize {
            if self.port_is_host[port.index()] {
                return 0;
            }
            (0..self.num_vcs as u8)
                .map(|vc| cfg.vc_buffer_packets - self.credits(port, vc))
                .sum()
        }

        fn add_waiter(&mut self, out_port: Port, waiter: Waiter) {
            let flag = self.cell(waiter.in_port, waiter.vc);
            if self.waiting_flag[flag] {
                return;
            }
            self.waiting_flag[flag] = true;
            self.waiters[out_port.index()].push_back(waiter);
        }

        fn pop_waiter(&mut self, out_port: Port) -> Option<Waiter> {
            let w = self.waiters[out_port.index()].pop_front();
            if let Some(w) = w {
                let flag = self.cell(w.in_port, w.vc);
                self.waiting_flag[flag] = false;
            }
            w
        }

        fn buffered_packets(&self) -> usize {
            self.input.iter().map(|q| q.len()).sum::<usize>()
                + self.output.iter().map(|q| q.len()).sum::<usize>()
        }

        fn map_packet_refs(&mut self, f: &mut impl FnMut(PacketRef) -> PacketRef) {
            for cell in &mut self.input {
                for r in cell.iter_mut() {
                    *r = f(*r);
                }
            }
            for cell in &mut self.output {
                for r in cell.iter_mut() {
                    *r = f(*r);
                }
            }
        }
    }

    /// splitmix64: a seeded stream for the operation generator.
    fn next(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Every packet handle in walk order, with each one renumbered to its
    /// position (so the walk is also checked to write back).
    fn walk(map: impl FnOnce(&mut dyn FnMut(PacketRef) -> PacketRef)) -> Vec<PacketRef> {
        let mut seen = Vec::new();
        map(&mut |r| {
            seen.push(r);
            PacketRef(r.0 ^ 1)
        });
        seen
    }

    /// Drive the compact state and the oracle through `ops` seeded random
    /// operations from a fresh router, comparing every answer, and the walk
    /// order and the wire form every 100 (the first time before any).
    fn differential(topo: &AnyTopology, router: RouterId, seed: u64, ops: usize) {
        let cfg = EngineConfig {
            vc_buffer_packets: 6,
            output_queue_packets: 4,
            ..EngineConfig::paper(3)
        };
        let mut s = RouterState::new(topo, router, &cfg);
        let mut o = wire::RouterState::new(topo, router, &cfg);
        let (ports, vcs) = (s.num_ports(), s.num_vcs());
        let mut x = seed;
        let mut id = 0u32;
        for step in 0..ops {
            let at = format!("seed {seed}, step {step}");
            if step % 100 == 0 {
                assert_eq!(
                    walk(|f| s.map_packet_refs(&mut |r| f(r))),
                    walk(|f| o.map_packet_refs(&mut |r| f(r))),
                    "{at}: walk order"
                );
                assert_eq!(s.to_value(), o.to_value(), "{at}: wire form");
                // The wire form decodes to a state that behaves the same.
                let back = RouterState::from_value(&s.to_value()).expect("own wire form decodes");
                assert_eq!(back.to_value(), o.to_value(), "{at}: decoded");
                s = back;
            }
            // A few hot ports, so queues fill and wait lists collide.
            let mut port = || Port((next(&mut x) % ports.min(4) as u64) as u16);
            let (port, other) = (port(), port());
            let vc = (next(&mut x) % vcs as u64) as u8;
            match next(&mut x) % 16 {
                0 | 1 if o.input_buffer_len(port, vc) < cfg.vc_buffer_packets => {
                    id += 1;
                    let was_empty = s.push_input(port, vc, PacketRef(id), &cfg);
                    assert_eq!(
                        was_empty,
                        o.push_input(port, vc, PacketRef(id)) == 1,
                        "{at}"
                    );
                }
                2 => assert_eq!(s.pop_input(port, vc), o.pop_input(port, vc), "{at}"),
                3 if o.input_buffer_len(port, vc) < cfg.vc_buffer_packets => {
                    id += 1;
                    s.push_input_front(port, vc, PacketRef(id));
                    o.push_input_front(port, vc, PacketRef(id));
                }
                4 | 5 => {
                    let space = o.output_has_space(port, vc, &cfg);
                    assert_eq!(s.output_has_space(port, vc, &cfg), space, "{at}");
                    if space {
                        id += 1;
                        s.push_output(port, vc, PacketRef(id));
                        o.push_output(port, vc, PacketRef(id));
                    }
                }
                6 => assert_eq!(s.pop_output(port, vc), o.pop_output(port, vc), "{at}"),
                7 => assert_eq!(s.select_output_vc(port), o.select_output_vc(port), "{at}"),
                8 if o.credits(port, vc) > 0 => {
                    s.consume_credit(port, vc);
                    o.consume_credit(port, vc);
                }
                9 if o.credits(port, vc) < cfg.vc_buffer_packets => {
                    s.return_credit(port, vc, &cfg);
                    o.return_credit(port, vc);
                }
                10 | 11 => {
                    let w = Waiter { in_port: other, vc };
                    s.add_waiter(port, w);
                    o.add_waiter(port, w);
                }
                12 => assert_eq!(s.pop_waiter(port), o.pop_waiter(port), "{at}"),
                13 => {
                    let t = next(&mut x) % 1_000;
                    s.set_link_busy_until(port, t);
                    o.link_free_at[port.index()] = t;
                }
                14 => {
                    let pending = next(&mut x).is_multiple_of(2);
                    s.set_output_event_pending(port, pending);
                    o.output_event_pending[port.index()] = pending;
                }
                _ => {
                    assert_eq!(s.input_head(port, vc), o.input_head(port, vc), "{at}");
                    assert_eq!(s.credits(port, vc), o.credits(port, vc), "{at}");
                    assert_eq!(s.used_credits(port, &cfg), o.used_credits(port, &cfg));
                    assert_eq!(s.output_queue_len(port), o.output_queue_len(port));
                    assert_eq!(s.link_free_at(port), o.link_free_at[port.index()]);
                    let pending = o.output_event_pending[port.index()];
                    assert_eq!(s.output_event_pending(port), pending, "{at}");
                    assert_eq!(s.buffered_packets(), o.buffered_packets(), "{at}");
                }
            }
        }
        assert!(id > 1_000, "the generator must queue packets");
    }

    #[test]
    fn compact_state_matches_the_deque_reference() {
        let dragonfly =
            AnyTopology::from(dragonfly_topology::Dragonfly::new(DragonflyConfig::tiny()));
        let fattree = AnyTopology::from(dragonfly_topology::FatTree::new(
            dragonfly_topology::FatTreeConfig::tiny(),
        ));
        let core = (0..fattree.num_routers())
            .map(RouterId::from_index)
            .find(|&r| fattree.host_ports(r) == 0)
            .expect("a fat-tree has core routers");
        for seed in 0..4 {
            differential(&dragonfly, RouterId(0), seed, 10_000);
            differential(&fattree, core, seed, 10_000);
        }
    }
}
