//! Fault injection: compiled fault schedules applied by the engine.
//!
//! A [`FaultSchedule`] is a time-ordered list of [`CompiledFault`] entries,
//! each carrying the primitive [`FaultOp`]s (port/router kill or restore)
//! that one logical fault expands to. Callers (the `sim` crate) compile
//! user-facing fault specs against a concrete topology; the engine only
//! sees primitives.
//!
//! ## Determinism contract
//!
//! Fault times are **quantized to lookahead multiples** by
//! [`FaultSchedule::quantized`] (`t_q = ceil(t / L) · L` with `L` the
//! conservative lookahead). Every shard holds the full schedule and applies
//! each entry to its own topology clone *immediately before dispatching the
//! first event with `time >= t_q`* — a point in the per-shard event
//! sequence that is identical across shard counts and execution modes,
//! because events are totally ordered by `(time, key, seq)` and faults
//! always win ties at `t_q`. Fault
//! application never sends cross-shard messages: a link kill carries
//! `PortDown` ops for **both** endpoints, so every liveness query any
//! router makes is answered from shard-local state.
//!
//! Quantization also guarantees a restore is separated from the matching
//! kill by at least one lookahead window, which is what makes the
//! kill-time state reset safe: every credit or packet that was in flight
//! towards the dead entity has landed (and been dropped/refunded) before
//! the entity comes back.

use crate::time::SimTime;
use dragonfly_topology::ids::{Port, RouterId};
use serde::{Deserialize, Serialize};

/// One primitive liveness change. Link-level faults are expressed as a
/// `PortDown`/`PortUp` *pair* (one per endpoint) by the compiler, never as
/// a single op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOp {
    /// Mark one router port down (stranded output packets are dropped).
    PortDown {
        /// Router owning the port.
        router: RouterId,
        /// The port going down.
        port: Port,
    },
    /// Mark one router port up again.
    PortUp {
        /// Router owning the port.
        router: RouterId,
        /// The port coming back.
        port: Port,
    },
    /// Kill a whole router: buffered packets are dropped (with upstream
    /// credit restitution) and its state is reset to factory-fresh, so a
    /// later `RouterUp` resumes from a clean slate.
    RouterDown {
        /// The router going down.
        router: RouterId,
    },
    /// Restore a previously killed router.
    RouterUp {
        /// The router coming back.
        router: RouterId,
    },
}

/// One fault event: all ops of one logical fault, applied atomically at
/// `at_ns` (already quantized when the engine sees it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompiledFault {
    /// Application time in ns (quantized to a lookahead multiple).
    pub at_ns: SimTime,
    /// The primitive liveness changes, applied in order.
    pub ops: Vec<FaultOp>,
}

/// A time-ordered fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Entries sorted (stably) by `at_ns`.
    pub events: Vec<CompiledFault>,
}

impl FaultSchedule {
    /// An empty schedule (no faults).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the schedule has no entries.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule with every entry time rounded **up** to the next
    /// multiple of `lookahead` and entries stably sorted by time (entries
    /// sharing a quantized time keep their spec order).
    pub fn quantized(&self, lookahead: SimTime) -> Self {
        let l = lookahead.max(1);
        let mut events: Vec<CompiledFault> = self
            .events
            .iter()
            .map(|f| CompiledFault {
                at_ns: f.at_ns.div_ceil(l) * l,
                ops: f.ops.clone(),
            })
            .collect();
        events.sort_by_key(|f| f.at_ns);
        Self { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_rounds_up_to_lookahead_multiples() {
        let sched = FaultSchedule {
            events: vec![
                CompiledFault {
                    at_ns: 50_000,
                    ops: vec![FaultOp::RouterDown {
                        router: RouterId(3),
                    }],
                },
                CompiledFault {
                    at_ns: 299,
                    ops: vec![FaultOp::PortDown {
                        router: RouterId(0),
                        port: Port(4),
                    }],
                },
                CompiledFault {
                    at_ns: 300,
                    ops: vec![FaultOp::PortUp {
                        router: RouterId(0),
                        port: Port(4),
                    }],
                },
            ],
        };
        let q = sched.quantized(300);
        assert_eq!(
            q.events.iter().map(|f| f.at_ns).collect::<Vec<_>>(),
            vec![300, 300, 50_100],
            "sorted by quantized time, stable within ties"
        );
        // A time on the grid stays put; 299 rounds up to 300 and keeps its
        // spec order relative to the entry already at 300.
        assert!(matches!(q.events[0].ops[0], FaultOp::PortDown { .. }));
        assert!(matches!(q.events[1].ops[0], FaultOp::PortUp { .. }));
    }

    #[test]
    fn zero_lookahead_degrades_to_nanosecond_grid() {
        let sched = FaultSchedule {
            events: vec![CompiledFault {
                at_ns: 7,
                ops: vec![],
            }],
        };
        assert_eq!(sched.quantized(0).events[0].at_ns, 7);
    }

    #[test]
    fn schedule_round_trips_through_serde() {
        let sched = FaultSchedule {
            events: vec![CompiledFault {
                at_ns: 300,
                ops: vec![
                    FaultOp::PortDown {
                        router: RouterId(1),
                        port: Port(2),
                    },
                    FaultOp::RouterUp {
                        router: RouterId(9),
                    },
                ],
            }],
        };
        let json = serde_json::to_string(&sched).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sched);
    }
}
