//! Execution-level closed-loop task programs.
//!
//! A workload front-end (the `dragonfly-workload` crate) lowers collective
//! and mini-app descriptions to one [`NodeProgram`] per node: straight-line
//! runs of [`Op`]s and loops, each loop one body executed `times` times,
//! run by the owning [`crate::shard::Shard`]. The engine knows nothing
//! about collectives — only about these four primitive ops — which keeps
//! the determinism argument local:
//!
//! * every op transition fires from a shard-local event ([`TaskWake`] /
//!   [`TaskRecv`], see [`crate::event::EventKind`]) with a content-derived
//!   key, so transitions sort identically whatever the shard count;
//! * `Send` posts packets at the node's own NIC (same code path as
//!   injector traffic), and deliveries land in the shard that owns the
//!   destination node, so no new cross-shard channel exists.
//!
//! A program is addressed as the flat op sequence it unrolls to: a task's
//! `pc` counts unrolled ops, and [`NodeProgram::op_at`] finds the op of
//! any `pc` in its loop body. So a loop costs one body in memory however
//! often it runs, and a task, or a snapshot of one, is the same as if the
//! program had been unrolled. A `Phase` op in a loop body holds its
//! first-iteration index; the iteration's index is derived from it and
//! clamped below [`MAX_PHASES`] here, in [`NodeProgram::op_at`].
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
/// nodes and up to 2^20 sends per node, the same exhaustion class as the
/// injector's 36-bit id space. A program that sends more would wrap into
/// the next node's ids; `WorkloadSpec::compile` refuses it
/// ([`NodeProgram::sends`]).
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
        /// Phase slot, below [`MAX_PHASES`]. In a loop body it is the slot
        /// of the first iteration; iteration `k` completes slot
        /// `min(index + k × phase_step, MAX_PHASES − 1)`, which
        /// [`NodeProgram::op_at`] returns.
        index: u32,
    },
}

/// Phase indices reported to observers are clamped below this bound, so
/// per-phase metric vectors stay small for arbitrarily long workloads.
pub const MAX_PHASES: u32 = 32;

/// The program of one node: straight-line runs and loops, addressed by
/// the index of an op in the sequence they unroll to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeProgram {
    /// In program order; a straight-line run is a segment with
    /// `times = 1`. No segment is empty.
    segments: Vec<Segment>,
    /// Unrolled length: where the next segment would start.
    len: usize,
}

/// One body of ops executed `times` times, starting at unrolled index
/// `start`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment {
    start: usize,
    body: Vec<Op>,
    times: u64,
    /// How far each iteration moves the phase slots of the body's `Phase`
    /// ops.
    phase_step: u32,
}

impl NodeProgram {
    /// Append `op` to the program's trailing straight-line run.
    pub fn push(&mut self, op: Op) {
        match self.segments.last_mut() {
            Some(last) if last.times == 1 => last.body.push(op),
            _ => self.segments.push(Segment {
                start: self.len,
                body: vec![op],
                times: 1,
                phase_step: 0,
            }),
        }
        self.len += 1;
    }

    /// Append a loop: `body` executed `times` times, its `Phase` ops moved
    /// on by `phase_step` slots per iteration. An empty body or a zero
    /// count appends nothing; a body run once is a straight-line run.
    pub fn push_loop(&mut self, mut body: Vec<Op>, times: u64, phase_step: u32) {
        if body.is_empty() || times == 0 {
            return;
        }
        body.shrink_to_fit();
        let unrolled = usize::try_from(times)
            .ok()
            .and_then(|t| t.checked_mul(body.len()))
            .and_then(|n| n.checked_add(self.len))
            .expect("an unrolled program fits in usize");
        self.segments.push(Segment {
            start: self.len,
            body,
            times,
            phase_step,
        });
        self.len = unrolled;
    }

    /// Number of ops executed from start to end (loops unrolled).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the program executes no op.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The op executed at unrolled index `pc`, `None` past the end.
    #[inline]
    pub fn op_at(&self, pc: usize) -> Option<Op> {
        if pc >= self.len {
            return None;
        }
        let seg = &self.segments[self.segments.partition_point(|s| s.start <= pc) - 1];
        let offset = pc - seg.start;
        let op = seg.body[offset % seg.body.len()];
        match op {
            Op::Phase { index } if seg.times > 1 => {
                let iteration = (offset / seg.body.len()) as u64;
                let slot = iteration
                    .saturating_mul(u64::from(seg.phase_step))
                    .saturating_add(u64::from(index));
                Some(Op::Phase {
                    index: slot.min(u64::from(MAX_PHASES - 1)) as u32,
                })
            }
            _ => Some(op),
        }
    }

    /// Every op in execution order, loops unrolled.
    pub fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        (0..self.len).map(|pc| self.op_at(pc).expect("pc below len"))
    }

    /// Packets the program sends from start to end, saturating.
    pub fn sends(&self) -> u64 {
        self.segments
            .iter()
            .map(|seg| {
                let per_iteration: u64 = seg
                    .body
                    .iter()
                    .map(|op| match op {
                        Op::Send { messages, .. } => u64::from(*messages),
                        _ => 0,
                    })
                    .sum();
                per_iteration.saturating_mul(seg.times)
            })
            .fold(0, u64::saturating_add)
    }

    /// Heap bytes at retained capacity: the segment list and the bodies.
    pub fn memory_bytes(&self) -> usize {
        self.segments.capacity() * std::mem::size_of::<Segment>()
            + self
                .segments
                .iter()
                .map(|seg| seg.body.capacity() * std::mem::size_of::<Op>())
                .sum::<usize>()
    }
}

/// A straight-line program.
impl From<Vec<Op>> for NodeProgram {
    fn from(ops: Vec<Op>) -> Self {
        let mut program = Self::default();
        program.push_loop(ops, 1, 0);
        program
    }
}

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
    fn a_loop_is_addressed_as_its_unrolled_ops() {
        let send = Op::Send {
            dst: NodeId(3),
            messages: 2,
        };
        let compute = Op::Compute { delay_ns: 5 };
        let phase = |index| Op::Phase { index };
        let mut program = NodeProgram::from(vec![phase(0)]);
        program.push_loop(vec![send, phase(1), compute, phase(2)], 20, 2);
        program.push(compute);
        assert_eq!((program.len(), program.sends()), (1 + 4 * 20 + 1, 40));
        // Iteration k completes slots 1 + 2k and 2 + 2k, clamped below
        // MAX_PHASES from iteration 15 on.
        let slot = |k: u32, first: u32| (first + 2 * k).min(MAX_PHASES - 1);
        let mut want = vec![phase(0)];
        for k in 0..20 {
            want.extend([send, phase(slot(k, 1)), compute, phase(slot(k, 2))]);
        }
        want.push(compute);
        assert_eq!(program.ops().collect::<Vec<_>>(), want);
        assert_eq!(program.op_at(want.len()), None);
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
