//! Execution-level closed-loop task programs.
//!
//! A workload front-end (the `dragonfly-workload` crate) lowers collective
//! and mini-app descriptions to one [`NodeProgram`] per node: a straight-
//! line list of [`Op`]s executed by the owning [`crate::shard::Shard`].
//! The engine knows nothing about collectives — only about these four
//! primitive ops — which keeps the determinism argument local:
//!
//! * every op transition fires from a shard-local event ([`TaskWake`] /
//!   [`TaskRecv`], see [`crate::event::EventKind`]) with a content-derived
//!   key, so transitions sort identically whatever the shard count;
//! * `Send` posts packets at the node's own NIC (same code path as
//!   injector traffic), and deliveries land in the shard that owns the
//!   destination node, so no new cross-shard channel exists.
//!
//! [`TaskWake`]: crate::event::EventKind::TaskWake
//! [`TaskRecv`]: crate::event::EventKind::TaskRecv

use crate::time::SimTime;
use dragonfly_topology::ids::NodeId;
use serde::{Deserialize, Serialize};

/// Workload packets carry ids in a namespace disjoint from the injector's
/// sequential ids (which start at 0 and count up): the top bit is set and
/// the low bits encode `(source node, per-node send sequence)`, so id
/// assignment is deterministic no matter which shard materialises the
/// packet first.
pub const WORKLOAD_ID_BIT: u64 = 1 << 63;

/// Bits reserved for the per-node send sequence inside a workload packet
/// id. The RL-feedback event key truncates packet ids to 36 bits, so the
/// source node occupies bits 20..36 — unique for systems below 65,536
/// nodes and up to ~1M sends per node, the same exhaustion class as the
/// injector's 36-bit id space.
pub const WORKLOAD_SEQ_BITS: u32 = 20;

/// The deterministic id of the `seq`-th workload packet sent by `node`.
#[inline]
pub fn workload_packet_id(node: NodeId, seq: u64) -> u64 {
    debug_assert!(seq < (1 << WORKLOAD_SEQ_BITS) as u64);
    WORKLOAD_ID_BIT | ((node.index() as u64) << WORKLOAD_SEQ_BITS) | seq
}

/// The index of the node that sends workload packet `id`, or `None` for an
/// injector id.
#[inline]
pub(crate) fn workload_source(id: u64) -> Option<u64> {
    (id & WORKLOAD_ID_BIT != 0).then_some((id & !WORKLOAD_ID_BIT) >> WORKLOAD_SEQ_BITS)
}

/// One primitive step of a node's task program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Busy the node for `delay_ns` (no network activity); the program
    /// resumes via a `TaskWake` event.
    Compute {
        /// Duration in ns.
        delay_ns: u64,
    },
    /// Post `messages` packets to `dst` at the node's NIC and continue
    /// immediately (sends are asynchronous; backpressure shows up in
    /// delivery times, not here).
    Send {
        /// Destination node.
        dst: NodeId,
        /// Number of packets to post.
        messages: u32,
    },
    /// Block until `messages` packets from `from` (cumulative, MPI-style
    /// per-source counting — no tags) have been delivered and not yet
    /// consumed by an earlier `Recv`.
    Recv {
        /// Source node to count deliveries from.
        from: NodeId,
        /// Number of packets to consume.
        messages: u32,
        /// Whether the blocked time counts as barrier wait (set by the
        /// barrier/collective lowerings for their synchronising receives).
        barrier: bool,
    },
    /// Marker: reaching this op completes phase `index` for this rank
    /// (reported through the observer; purely observational).
    Phase {
        /// Phase slot, already clamped by the front-end.
        index: u32,
    },
}

/// The straight-line program of one node.
pub type NodeProgram = Vec<Op>;

/// Runtime state of one node's program (owned by its shard), and what a
/// snapshot stores of it: the counters, not the program. The shard keeps
/// the program it was installed with beside it, and a restored shard keeps
/// the one it compiled from the spec.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NodeTask {
    /// Index of the next op to execute.
    pub(crate) pc: usize,
    /// Per-source delivered-but-unconsumed message counts, sorted by
    /// source node for binary search (never iterated, so order could not
    /// matter anyway).
    pub(crate) avail: Vec<(NodeId, u64)>,
    /// Set while a `Compute` is in flight: a `TaskRecv` arriving mid-
    /// compute must not advance the program past the pending wake.
    pub(crate) resume_at: Option<SimTime>,
    /// When the current head `Recv` first blocked (for wait accounting).
    pub(crate) blocked_since: Option<SimTime>,
    /// Per-node send sequence (feeds [`workload_packet_id`]).
    pub(crate) next_send_seq: u64,
    /// The program ran to completion.
    pub(crate) done: bool,
}

impl NodeTask {
    /// Whether this task, a snapshot's, can resume on a program of `ops`
    /// ops in a system of `nodes` nodes: a `pc` within the program, and
    /// `avail` strictly ascending by existing sources. The error names the
    /// field.
    pub(crate) fn check_fits(&self, ops: usize, nodes: usize) -> Result<(), String> {
        if self.pc > ops {
            return Err(format!("pc = {}, beyond the program's {ops} ops", self.pc));
        }
        for (i, &(src, _)) in self.avail.iter().enumerate() {
            let node = src.index();
            if node >= nodes {
                return Err(format!(
                    "avail[{i}] names node {node}, outside the {nodes} nodes"
                ));
            }
            if i > 0 && self.avail[i - 1].0 >= src {
                return Err(format!(
                    "avail[{i}] names node {node}, not above avail[{}]'s",
                    i - 1
                ));
            }
        }
        Ok(())
    }

    /// Record one delivered message from `src`.
    pub(crate) fn record_delivery(&mut self, src: NodeId) {
        match self.avail.binary_search_by_key(&src, |&(s, _)| s) {
            Ok(i) => self.avail[i].1 += 1,
            Err(i) => self.avail.insert(i, (src, 1)),
        }
    }

    /// Try to consume `messages` delivered messages from `src`; returns
    /// whether enough were available (and consumes them if so).
    pub(crate) fn try_consume(&mut self, src: NodeId, messages: u32) -> bool {
        match self.avail.binary_search_by_key(&src, |&(s, _)| s) {
            Ok(i) if self.avail[i].1 >= messages as u64 => {
                self.avail[i].1 -= messages as u64;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_ids_are_disjoint_from_injector_ids_and_unique() {
        let a = workload_packet_id(NodeId(0), 0);
        let b = workload_packet_id(NodeId(1), 0);
        let c = workload_packet_id(NodeId(0), 1);
        assert!(a & WORKLOAD_ID_BIT != 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // The 36-bit truncation used by the RL-feedback key stays unique
        // across nodes below 2^16.
        assert_ne!(a & 0xF_FFFF_FFFF, b & 0xF_FFFF_FFFF);
    }

    #[test]
    fn recv_counters_consume_cumulatively() {
        let mut t = NodeTask::default();
        let src = NodeId(7);
        assert!(!t.try_consume(src, 1));
        t.record_delivery(src);
        t.record_delivery(src);
        assert!(!t.try_consume(src, 3));
        assert!(t.try_consume(src, 2));
        assert!(!t.try_consume(src, 1));
    }
}
