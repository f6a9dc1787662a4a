//! Measurement hooks.
//!
//! The engine reports packet lifecycle events to a [`SimObserver`]; metric
//! collection (latency statistics, throughput time series, ...) lives
//! outside the engine so that the hot simulation loop stays small and the
//! measurement policy (warmup windows, binning) is decided by the caller.

use crate::packet::Packet;
use crate::time::SimTime;
use dragonfly_topology::ids::NodeId;

/// Receiver of packet lifecycle notifications.
pub trait SimObserver: Send {
    /// A message was generated at its source node (entered the NIC source
    /// queue).
    fn packet_generated(&mut self, packet: &Packet, now: SimTime) {
        let _ = (packet, now);
    }

    /// A packet left its NIC and entered the router fabric.
    fn packet_injected(&mut self, packet: &Packet, now: SimTime) {
        let _ = (packet, now);
    }

    /// A packet of `size_bytes` bytes was delivered to its destination
    /// node. `now` is the delivery time (including the final ejection
    /// link).
    fn packet_delivered(&mut self, packet: &Packet, size_bytes: u32, now: SimTime) {
        let _ = (packet, size_bytes, now);
    }

    /// A closed-loop task program completed phase `phase` on `node` at
    /// `now` (see [`crate::workload::Op::Phase`]).
    fn task_phase_completed(&mut self, node: NodeId, phase: u32, now: SimTime) {
        let _ = (node, phase, now);
    }

    /// `node`'s task program ran to completion at `now`.
    fn task_rank_finished(&mut self, node: NodeId, now: SimTime) {
        let _ = (node, now);
    }

    /// `node` spent `waited_ns` blocked in a `Recv`; `barrier` is set for
    /// the synchronising receives of barrier/collective lowerings.
    fn task_blocked_wait(&mut self, node: NodeId, waited_ns: u64, barrier: bool) {
        let _ = (node, waited_ns, barrier);
    }

    /// A packet was dropped by the fabric (dead router/port under fault
    /// injection, or TTL exceeded). Dropped packets are never also
    /// delivered; conservation is `generated = delivered + dropped +
    /// in-flight`.
    fn packet_dropped(&mut self, packet: &Packet, now: SimTime) {
        let _ = (packet, now);
    }

    /// The source NIC re-generated a dropped workload message (a new packet
    /// instance with the same workload id). Counted in addition to the
    /// `packet_generated` call the retransmission also triggers.
    fn packet_retransmitted(&mut self, packet: &Packet, now: SimTime) {
        let _ = (packet, now);
    }

    /// The source NIC exhausted its retransmit budget for a workload
    /// message from `src` to `dst` and gave up; the destination will never
    /// observe the message (an unreachable pair while faults persist).
    fn message_gave_up(&mut self, src: NodeId, dst: NodeId, now: SimTime) {
        let _ = (src, dst, now);
    }
}

/// An observer that can be split across conservative-parallel shards and
/// merged back.
///
/// Each shard owns an independent clone of the observer and sees only the
/// lifecycle events of packets generated at / delivered to its own nodes;
/// [`ShardObserver::absorb`] folds the per-shard results together (the
/// engine absorbs in ascending shard order). For the merged result to be
/// identical to a single-shard run, implementations must accumulate in
/// order-independent form — integer sums, histograms, sample multisets —
/// rather than order-sensitive floating-point folds.
pub trait ShardObserver: SimObserver + Clone + Send {
    /// Fold another shard's observations into this one. It is borrowed,
    /// so merging the live shards' observers copies nothing of theirs but
    /// what the merged result keeps.
    fn absorb(&mut self, other: &Self);

    /// Heap this observer holds, in bytes: a side channel like
    /// `Engine::memory_bytes`, summed over shards by
    /// [`crate::engine::Engine::memory_breakdown`]. 0 unless overridden.
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// An observer that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

impl ShardObserver for NullObserver {
    fn absorb(&mut self, _other: &Self) {}
}

/// An observer that just counts events — convenient in tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingObserver {
    /// Messages generated.
    pub generated: u64,
    /// Packets injected into the fabric.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Sum of delivered-packet latencies in ns.
    pub total_latency_ns: u128,
    /// Sum of delivered-packet hop counts.
    pub total_hops: u64,
    /// Packets dropped by the fabric (faults / TTL).
    pub dropped: u64,
    /// Retransmitted packet instances.
    pub retransmits: u64,
    /// Messages abandoned after exhausting the retransmit budget.
    pub gave_up: u64,
}

impl SimObserver for CountingObserver {
    fn packet_generated(&mut self, _packet: &Packet, _now: SimTime) {
        self.generated += 1;
    }

    fn packet_injected(&mut self, _packet: &Packet, _now: SimTime) {
        self.injected += 1;
    }

    fn packet_delivered(&mut self, packet: &Packet, _size_bytes: u32, now: SimTime) {
        self.delivered += 1;
        self.total_latency_ns += packet.latency_ns(now) as u128;
        self.total_hops += packet.hops as u64;
    }

    fn packet_dropped(&mut self, _packet: &Packet, _now: SimTime) {
        self.dropped += 1;
    }

    fn packet_retransmitted(&mut self, _packet: &Packet, _now: SimTime) {
        self.retransmits += 1;
    }

    fn message_gave_up(&mut self, _src: NodeId, _dst: NodeId, _now: SimTime) {
        self.gave_up += 1;
    }
}

impl ShardObserver for CountingObserver {
    fn absorb(&mut self, other: &Self) {
        self.generated += other.generated;
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.total_latency_ns += other.total_latency_ns;
        self.total_hops += other.total_hops;
        self.dropped += other.dropped;
        self.retransmits += other.retransmits;
        self.gave_up += other.gave_up;
    }
}

impl CountingObserver {
    /// Mean delivered latency in ns (0 if nothing delivered).
    pub fn mean_latency_ns(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency_ns as f64 / self.delivered as f64
        }
    }

    /// Mean hop count of delivered packets (0 if nothing delivered).
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::Dragonfly;

    fn packet(created: SimTime, hops: u8) -> Packet {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let mut p = Packet::new(&topo, 0, NodeId(0), NodeId(1), created);
        p.hops = hops;
        p
    }

    #[test]
    fn counting_observer_aggregates() {
        let mut obs = CountingObserver::default();
        obs.packet_generated(&packet(0, 0), 0);
        obs.packet_injected(&packet(0, 0), 10);
        obs.packet_delivered(&packet(0, 3), 128, 500);
        obs.packet_delivered(&packet(100, 5), 128, 700);
        assert_eq!(obs.generated, 1);
        assert_eq!(obs.injected, 1);
        assert_eq!(obs.delivered, 2);
        assert_eq!(obs.mean_latency_ns(), (500.0 + 600.0) / 2.0);
        assert_eq!(obs.mean_hops(), 4.0);
    }

    #[test]
    fn empty_observer_reports_zero_means() {
        let obs = CountingObserver::default();
        assert_eq!(obs.mean_latency_ns(), 0.0);
        assert_eq!(obs.mean_hops(), 0.0);
    }
}
