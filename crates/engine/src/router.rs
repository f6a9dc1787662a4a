//! Per-router simulated state: input buffers, output queues, credits,
//! link serialisation and blocked-packet wait lists.
//!
//! Buffers are indexed by `(port, vc)` flattened to `port * num_vcs + vc`.

use crate::arena::PacketRef;
use crate::config::EngineConfig;
use crate::time::SimTime;
use dragonfly_topology::ids::{Port, RouterId};
use dragonfly_topology::ports::PortKind;
use dragonfly_topology::{AnyTopology, Topology};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A blocked input VC waiting for space in some output queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Waiter {
    /// Input port whose head-of-line packet is blocked.
    pub in_port: Port,
    /// Input VC whose head-of-line packet is blocked.
    pub vc: u8,
}

/// All mutable state of one simulated router.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterState {
    num_ports: usize,
    num_vcs: usize,
    /// Input buffers, `port * num_vcs + vc`. Queues store 4-byte arena
    /// handles; the packets themselves live in the engine's
    /// [`crate::arena::PacketArena`].
    input: Vec<VecDeque<PacketRef>>,
    /// Output queues, `port * num_vcs + vc` (arena handles, as above).
    output: Vec<VecDeque<PacketRef>>,
    /// Credits available towards the downstream input buffer,
    /// `port * num_vcs + vc`. Host (ejection) ports are not credit limited.
    credits: Vec<usize>,
    /// Cached per-port occupancy of the output queues (sum over VCs).
    output_occupancy: Vec<usize>,
    /// Time at which each outgoing link finishes serialising its current
    /// packet.
    link_free_at: Vec<SimTime>,
    /// Whether an `OutputAttempt` event is already pending for each port
    /// (avoids flooding the event queue with duplicates).
    output_event_pending: Vec<bool>,
    /// Input VCs blocked on a full output queue, per output port.
    waiters: Vec<VecDeque<Waiter>>,
    /// Round-robin pointer over VCs for each output port.
    vc_rr: Vec<u8>,
    /// Whether each input VC currently sits on some waiter list (prevents
    /// double registration).
    waiting_flag: Vec<bool>,
    /// Host ports for ejection do not consume credits.
    port_is_host: Vec<bool>,
}

impl RouterState {
    /// Create the state for one specific router (port counts and host
    /// flags are per-router: a fat-tree core has no host ports).
    pub fn new(topo: &AnyTopology, router: RouterId, cfg: &EngineConfig) -> Self {
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

    /// Heap footprint of this router's buffers, credits and wait lists in
    /// bytes (capacities, not occupancy), excluding the struct itself.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let queues = |qs: &Vec<VecDeque<PacketRef>>| {
            qs.capacity() * size_of::<VecDeque<PacketRef>>()
                + qs.iter()
                    .map(|q| q.capacity() * size_of::<PacketRef>())
                    .sum::<usize>()
        };
        queues(&self.input)
            + queues(&self.output)
            + self.waiters.capacity() * size_of::<VecDeque<Waiter>>()
            + self
                .waiters
                .iter()
                .map(|w| w.capacity() * size_of::<Waiter>())
                .sum::<usize>()
            + (self.credits.capacity() + self.output_occupancy.capacity()) * size_of::<usize>()
            + self.link_free_at.capacity() * size_of::<SimTime>()
            + self.output_event_pending.capacity()
            + self.vc_rr.capacity()
            + self.waiting_flag.capacity()
            + self.port_is_host.capacity()
    }

    #[inline]
    fn cell(&self, port: Port, vc: u8) -> usize {
        debug_assert!(port.index() < self.num_ports);
        debug_assert!((vc as usize) < self.num_vcs);
        port.index() * self.num_vcs + vc as usize
    }

    /// Number of ports.
    #[inline]
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Number of VCs.
    #[inline]
    pub fn num_vcs(&self) -> usize {
        self.num_vcs
    }

    // ------------------------------------------------------------------
    // Input buffers
    // ------------------------------------------------------------------

    /// Occupancy of one input buffer.
    pub fn input_buffer_len(&self, port: Port, vc: u8) -> usize {
        self.input[self.cell(port, vc)].len()
    }

    /// Push an arriving packet into an input buffer. Returns the new length.
    pub fn push_input(
        &mut self,
        port: Port,
        vc: u8,
        packet: PacketRef,
        cfg: &EngineConfig,
    ) -> usize {
        let cell = self.cell(port, vc);
        debug_assert!(
            self.input[cell].len() < cfg.vc_buffer_packets,
            "credit flow control must prevent input buffer overflow"
        );
        self.input[cell].push_back(packet);
        self.input[cell].len()
    }

    /// Handle of the packet at the head of an input buffer.
    pub fn input_head(&self, port: Port, vc: u8) -> Option<PacketRef> {
        self.input[self.cell(port, vc)].front().copied()
    }

    /// Pop the head of an input buffer.
    pub fn pop_input(&mut self, port: Port, vc: u8) -> Option<PacketRef> {
        let cell = self.cell(port, vc);
        self.input[cell].pop_front()
    }

    /// Put a packet back at the *front* of an input buffer (used when a
    /// switch attempt finds the target output queue full and the packet has
    /// to keep waiting as the head-of-line packet).
    pub fn push_input_front(&mut self, port: Port, vc: u8, packet: PacketRef) {
        let cell = self.cell(port, vc);
        self.input[cell].push_front(packet);
    }

    // ------------------------------------------------------------------
    // Output queues
    // ------------------------------------------------------------------

    /// Total occupancy of a port's output queues (sum over VCs).
    #[inline]
    pub fn output_queue_len(&self, port: Port) -> usize {
        self.output_occupancy[port.index()]
    }

    /// Occupancy of one `(port, vc)` output queue.
    pub fn output_queue_vc_len(&self, port: Port, vc: u8) -> usize {
        self.output[self.cell(port, vc)].len()
    }

    /// Whether the `(port, vc)` output queue can accept another packet.
    pub fn output_has_space(&self, port: Port, vc: u8, cfg: &EngineConfig) -> bool {
        self.output[self.cell(port, vc)].len() < cfg.output_queue_packets
    }

    /// Push a packet into an output queue.
    pub fn push_output(&mut self, port: Port, vc: u8, packet: PacketRef) {
        let cell = self.cell(port, vc);
        self.output[cell].push_back(packet);
        self.output_occupancy[port.index()] += 1;
    }

    /// Pop a packet from an output queue.
    pub fn pop_output(&mut self, port: Port, vc: u8) -> Option<PacketRef> {
        let cell = self.cell(port, vc);
        let p = self.output[cell].pop_front();
        if p.is_some() {
            self.output_occupancy[port.index()] -= 1;
        }
        p
    }

    /// Select the next output VC to serve on `port`, round-robin, requiring
    /// a non-empty queue and (for fabric ports) an available credit.
    /// Advances the round-robin pointer when a VC is selected.
    pub fn select_output_vc(&mut self, port: Port) -> Option<u8> {
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

    // ------------------------------------------------------------------
    // Credits
    // ------------------------------------------------------------------

    /// Credits currently available for `(port, vc)`.
    pub fn credits(&self, port: Port, vc: u8) -> usize {
        self.credits[self.cell(port, vc)]
    }

    /// Consume one credit (a packet is being sent downstream).
    pub fn consume_credit(&mut self, port: Port, vc: u8) {
        let cell = self.cell(port, vc);
        debug_assert!(self.credits[cell] > 0, "sent without a credit");
        self.credits[cell] -= 1;
    }

    /// Return one credit (the downstream buffer freed a slot).
    pub fn return_credit(&mut self, port: Port, vc: u8, cfg: &EngineConfig) {
        let cell = self.cell(port, vc);
        self.credits[cell] += 1;
        debug_assert!(
            self.credits[cell] <= cfg.vc_buffer_packets,
            "credit overflow"
        );
    }

    /// Credits consumed on a port (summed over VCs); host ports report 0.
    pub fn used_credits(&self, port: Port, cfg: &EngineConfig) -> usize {
        if self.port_is_host[port.index()] {
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
        self.link_free_at[port.index()]
    }

    /// Mark the outgoing link of `port` busy until `t`.
    pub fn set_link_busy_until(&mut self, port: Port, t: SimTime) {
        self.link_free_at[port.index()] = t;
    }

    /// Whether an `OutputAttempt` is already scheduled for `port`.
    pub fn output_event_pending(&self, port: Port) -> bool {
        self.output_event_pending[port.index()]
    }

    /// Mark/unmark the pending `OutputAttempt` flag for `port`.
    pub fn set_output_event_pending(&mut self, port: Port, pending: bool) {
        self.output_event_pending[port.index()] = pending;
    }

    // ------------------------------------------------------------------
    // Blocked-input wait lists
    // ------------------------------------------------------------------

    /// Register an input VC as waiting for space in `out_port`'s queue.
    /// Idempotent per input VC.
    pub fn add_waiter(&mut self, out_port: Port, waiter: Waiter) {
        let flag = self.cell(waiter.in_port, waiter.vc);
        if self.waiting_flag[flag] {
            return;
        }
        self.waiting_flag[flag] = true;
        self.waiters[out_port.index()].push_back(waiter);
    }

    /// Pop the next waiter of `out_port`, clearing its waiting flag.
    pub fn pop_waiter(&mut self, out_port: Port) -> Option<Waiter> {
        let w = self.waiters[out_port.index()].pop_front();
        if let Some(w) = w {
            let flag = self.cell(w.in_port, w.vc);
            self.waiting_flag[flag] = false;
        }
        w
    }

    /// Number of packets currently buffered in this router (inputs +
    /// outputs), used by drain checks and tests.
    pub fn buffered_packets(&self) -> usize {
        self.input.iter().map(|q| q.len()).sum::<usize>()
            + self.output.iter().map(|q| q.len()).sum::<usize>()
    }

    /// Rewrite every buffered [`PacketRef`] in place, visiting input
    /// cells then output cells in `(port, vc)` index order.
    ///
    /// This deterministic walk order is part of the checkpoint format:
    /// merging shard snapshots into one canonical arena (and splitting it
    /// back) re-numbers packet slots by walking routers in id order with
    /// exactly this visitor, so the walk must enumerate refs the same way
    /// on both sides.
    pub fn map_packet_refs(&mut self, f: &mut impl FnMut(PacketRef) -> PacketRef) {
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
        s.push_input(port, 0, packet(1), &cfg);
        s.push_input(port, 0, packet(2), &cfg);
        assert_eq!(s.input_buffer_len(port, 0), 2);
        assert_eq!(s.input_head(port, 0).unwrap(), packet(1));
        assert_eq!(s.pop_input(port, 0).unwrap(), packet(1));
        assert_eq!(s.pop_input(port, 0).unwrap(), packet(2));
        assert!(s.pop_input(port, 0).is_none());
    }

    #[test]
    fn output_occupancy_tracks_pushes_and_pops() {
        let (_t, _cfg, mut s) = setup();
        let port = Port(3);
        s.push_output(port, 0, packet(1));
        s.push_output(port, 1, packet(2));
        assert_eq!(s.output_queue_len(port), 2);
        assert_eq!(s.output_queue_vc_len(port, 0), 1);
        s.pop_output(port, 0);
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
}
