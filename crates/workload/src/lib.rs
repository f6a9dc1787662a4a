//! # dragonfly-workload
//!
//! Closed-loop application workloads for the simulator: a serialisable
//! description language ([`WorkloadSpec`] — collectives, a halo-exchange
//! mini-app skeleton, compute blocks and the `sequence` / `repeat` / `mix`
//! combinators) plus the compiler that lowers a spec to one
//! [`dragonfly_engine::workload::NodeProgram`] per node.
//!
//! The lowerings are classic message-count-faithful MPI schedules:
//!
//! * **AllReduce** — recursive doubling with the standard fold-in/fold-out
//!   pre- and post-step for non-power-of-two communicators;
//! * **AllToAll** — the staggered ring (`round k`: rank `r` sends to
//!   `r + k`, receives from `r − k`);
//! * **Broadcast / Scatter / Gather** — a binomial-style recursive-halving
//!   tree rooted at any rank, with scatter/gather transfer sizes
//!   proportional to the moved subtree;
//! * **Barrier** — the dissemination barrier (`⌈log₂ n⌉` rounds of
//!   unit messages, never scaled by intensity);
//! * **HaloExchange** — per-phase nearest-neighbour exchange along one
//!   axis of the topology's logical [`Grid3D`], compute block first;
//! * **Compute** — a pure delay on every rank.
//!
//! Combinators compose over *communicators* (contiguous node ranges):
//! `sequence` runs parts back to back on the same communicator, `repeat`
//! iterates a body (compiled once, as a loop), and `mix` splits the
//! communicator into one contiguous chunk per part so different job types
//! run side by side.
//!
//! The engine executes the result *closed-loop* — a `Recv` op blocks its
//! node until the fabric has delivered the counted messages — so job
//! completion time reacts to routing quality and congestion rather than
//! to an offered-load dial. See `dragonfly-engine`'s crate docs for the
//! determinism argument.
//!
//! [`Grid3D`]: dragonfly_traffic::grid::Grid3D

pub mod compile;
pub mod spec;

pub use dragonfly_engine::workload::MAX_PHASES;
pub use spec::{WorkloadKindInfo, WorkloadSpec};
