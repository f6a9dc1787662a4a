//! Lowering [`WorkloadSpec`]s to per-node task programs.
//!
//! A *communicator* is a contiguous range of node ids; rank `r` of a
//! communicator starting at `s` is node `s + r`. The top-level spec runs
//! on the all-nodes communicator; `mix` splits it into contiguous chunks.
//! Every lowering is structurally matched — each `Send{dst, m}` has a
//! `Recv{from, m}` counterpart in `dst`'s program and no node ever sends
//! to itself — which is what lets the closed-loop engine drain to
//! completion (pinned by the tests below and the sim mode matrix).
//!
//! Offered *intensity* scales collective message counts (`max(1,
//! ceil(m × intensity))`) so load sweeps can reuse one spec; barrier
//! messages stay at one packet — a barrier's cost is latency, not volume.
//!
//! A program is straight-line runs and loops ([`NodeProgram`]). The
//! outermost `repeat` on each path lowers its body once, into one loop per
//! rank of its communicator; a `repeat` inside a loop body is unrolled
//! within that body. So a program costs one iteration of a job however
//! many it runs. Every `Phase` op holds the slot its first execution
//! completes, clamped below [`MAX_PHASES`] as it is allocated here; a loop
//! also records how many slots one iteration allocates, and the engine
//! derives (and clamps) the slot of every later iteration from it
//! ([`NodeProgram::op_at`]). A node may send at most
//! 2^[`WORKLOAD_SEQ_BITS`] packets, or its workload packet ids would wrap
//! into the next node's; `compile` refuses a spec that sends more.

use crate::spec::{usable_axes, WorkloadSpec};
use dragonfly_engine::workload::{NodeProgram, Op, MAX_PHASES, WORKLOAD_SEQ_BITS};
use dragonfly_topology::ids::NodeId;
use dragonfly_topology::{AnyTopology, Topology};
use dragonfly_traffic::grid::Grid3D;

/// A contiguous rank → node mapping.
#[derive(Debug, Clone, Copy)]
struct Comm {
    start: usize,
    len: usize,
}

impl Comm {
    fn node(&self, rank: usize) -> NodeId {
        debug_assert!(rank < self.len);
        NodeId::from_index(self.start + rank)
    }
}

impl WorkloadSpec {
    /// Validate against `topo` and lower to one program per node. A node
    /// that would send more packets than its workload ids can number is
    /// refused by name.
    ///
    /// `intensity` scales collective message counts (1.0 = the spec's
    /// literal counts); it plays the role the offered-load dial plays for
    /// open-loop traffic, so load-vs-completion-time sweeps can vary it.
    pub fn compile(&self, topo: &AnyTopology, intensity: f64) -> Result<Vec<NodeProgram>, String> {
        self.validate(topo)?;
        if intensity <= 0.0 || !intensity.is_finite() {
            return Err(format!(
                "workload intensity must be a positive finite number, got {intensity}"
            ));
        }
        let grid = Grid3D::for_system(topo);
        let axes = usable_axes(&grid);
        let mut lowering = Lowering::new(grid, axes, intensity, topo.num_nodes());
        lowering.lower(
            self,
            Comm {
                start: 0,
                len: topo.num_nodes(),
            },
        );
        let most = 1u64 << WORKLOAD_SEQ_BITS;
        for (node, program) in lowering.programs.iter().enumerate() {
            let sends = program.sends();
            if sends > most {
                return Err(format!(
                    "node {node} sends {sends} packets, more than the {most} \
                     workload packet ids a node has"
                ));
            }
        }
        Ok(lowering.programs)
    }
}

struct Lowering {
    grid: Grid3D,
    /// Grid axes (0 = x, 1 = y, 2 = z) with at least two points.
    axes: Vec<usize>,
    intensity: f64,
    programs: Vec<NodeProgram>,
    /// While a loop body is lowered, every node's body so far (empty for
    /// the nodes outside the loop's communicator).
    bodies: Option<Vec<Vec<Op>>>,
    next_phase: u32,
    /// Unroll every `repeat`, as a program without loops would run: the
    /// oracle the loops are tested against.
    #[cfg(test)]
    unroll: bool,
}

impl Lowering {
    fn new(grid: Grid3D, axes: Vec<usize>, intensity: f64, nodes: usize) -> Self {
        Self {
            grid,
            axes,
            intensity,
            programs: vec![NodeProgram::default(); nodes],
            bodies: None,
            next_phase: 0,
            #[cfg(test)]
            unroll: false,
        }
    }

    fn push(&mut self, node: NodeId, op: Op) {
        match &mut self.bodies {
            Some(bodies) => bodies[node.index()].push(op),
            None => self.programs[node.index()].push(op),
        }
    }

    /// Whether a `repeat` met now is unrolled rather than lowered to a
    /// loop: inside a loop body it is.
    fn unrolls(&self) -> bool {
        #[cfg(test)]
        if self.unroll {
            return true;
        }
        self.bodies.is_some()
    }

    /// The outermost `repeat` on a path: `body` lowered once, into one
    /// loop of `times` iterations per rank of `comm`. Phase slots advance
    /// as if the body had been lowered `times` times.
    fn lower_loop(&mut self, body: &WorkloadSpec, times: u32, comm: Comm) {
        let first_phase = self.next_phase;
        self.bodies = Some(vec![Vec::new(); self.programs.len()]);
        self.lower(body, comm);
        let mut bodies = self.bodies.take().expect("set above");
        let phase_step = self.next_phase - first_phase;
        let next = u64::from(first_phase) + u64::from(times) * u64::from(phase_step);
        self.next_phase = next.min(u64::from(u32::MAX)) as u32;
        for rank in 0..comm.len {
            let node = comm.node(rank).index();
            let body = std::mem::take(&mut bodies[node]);
            self.programs[node].push_loop(body, u64::from(times), phase_step);
        }
    }

    /// Collective message count under the current intensity.
    fn scale(&self, messages: u32) -> u32 {
        let scaled = (messages as f64 * self.intensity).ceil().max(1.0);
        (scaled as u64).min(u32::MAX as u64) as u32
    }

    /// Allocate the next phase index (clamped to [`MAX_PHASES`]) and mark
    /// it completed-on-reach for every rank of `comm`.
    fn mark_phase(&mut self, comm: Comm) {
        let index = self.next_phase.min(MAX_PHASES - 1);
        self.next_phase = self.next_phase.saturating_add(1);
        for rank in 0..comm.len {
            self.push(comm.node(rank), Op::Phase { index });
        }
    }

    /// One matched transfer: `messages` packets from rank `src` to rank
    /// `dst` of `comm` (a `Send` in src's program, a `Recv` in dst's).
    fn transfer(&mut self, comm: Comm, src: usize, dst: usize, messages: u32, barrier: bool) {
        debug_assert_ne!(src, dst);
        self.push(
            comm.node(src),
            Op::Send {
                dst: comm.node(dst),
                messages,
            },
        );
        self.push(
            comm.node(dst),
            Op::Recv {
                from: comm.node(src),
                messages,
                barrier,
            },
        );
    }

    fn lower(&mut self, spec: &WorkloadSpec, comm: Comm) {
        match spec {
            WorkloadSpec::AllReduce { messages } => self.lower_allreduce(comm, *messages),
            WorkloadSpec::AllToAll { messages } => self.lower_alltoall(comm, *messages),
            WorkloadSpec::Broadcast { root, messages } => {
                let s = self.scale(*messages);
                self.bcast_tree(comm, *root, 0, comm.len, s, false);
                self.mark_phase(comm);
            }
            WorkloadSpec::Scatter { root, messages } => {
                let s = self.scale(*messages);
                self.bcast_tree(comm, *root, 0, comm.len, s, true);
                self.mark_phase(comm);
            }
            WorkloadSpec::Gather { root, messages } => {
                let s = self.scale(*messages);
                self.gather_tree(comm, *root, 0, comm.len, s);
                self.mark_phase(comm);
            }
            WorkloadSpec::Barrier => self.lower_barrier(comm),
            WorkloadSpec::HaloExchange {
                phases,
                messages,
                compute_ns,
            } => self.lower_halo(comm, *phases, *messages, *compute_ns),
            WorkloadSpec::Compute { ns } => {
                for rank in 0..comm.len {
                    self.push(comm.node(rank), Op::Compute { delay_ns: *ns });
                }
                self.mark_phase(comm);
            }
            WorkloadSpec::Sequence(parts) => {
                for part in parts {
                    self.lower(part, comm);
                }
            }
            WorkloadSpec::Repeat { times, body } if self.unrolls() => {
                for _ in 0..*times {
                    self.lower(body, comm);
                }
            }
            WorkloadSpec::Repeat { times, body } => self.lower_loop(body, *times, comm),
            WorkloadSpec::Mix(parts) => {
                let (n, k) = (comm.len, parts.len());
                let mut start = comm.start;
                for (i, part) in parts.iter().enumerate() {
                    let len = n / k + usize::from(i < n % k);
                    self.lower(part, Comm { start, len });
                    start += len;
                }
            }
        }
    }

    /// Recursive doubling with the standard pre/post fold for
    /// non-power-of-two sizes: ranks `p2..n` fold their contribution into
    /// `r − p2`, ranks `< p2` run `log₂ p2` exchange rounds (partner
    /// `r xor dist`), then results fold back out.
    fn lower_allreduce(&mut self, comm: Comm, messages: u32) {
        let n = comm.len;
        let s = self.scale(messages);
        let p2 = prev_pow2(n);
        for r in p2..n {
            self.transfer(comm, r, r - p2, s, false);
        }
        let mut dist = 1;
        while dist < p2 {
            // Emit all sends of a round before its receives so every
            // rank's packets are posted before anyone blocks.
            for r in 0..p2 {
                self.push(
                    comm.node(r),
                    Op::Send {
                        dst: comm.node(r ^ dist),
                        messages: s,
                    },
                );
            }
            for r in 0..p2 {
                self.push(
                    comm.node(r),
                    Op::Recv {
                        from: comm.node(r ^ dist),
                        messages: s,
                        barrier: false,
                    },
                );
            }
            dist <<= 1;
        }
        for r in p2..n {
            self.transfer(comm, r - p2, r, s, false);
        }
        self.mark_phase(comm);
    }

    /// Staggered ring: round `k` sends to `r + k`, receives from `r − k`,
    /// spreading load across distinct partner pairs each round.
    fn lower_alltoall(&mut self, comm: Comm, messages: u32) {
        let n = comm.len;
        let s = self.scale(messages);
        for k in 1..n {
            for r in 0..n {
                self.push(
                    comm.node(r),
                    Op::Send {
                        dst: comm.node((r + k) % n),
                        messages: s,
                    },
                );
            }
            for r in 0..n {
                self.push(
                    comm.node(r),
                    Op::Recv {
                        from: comm.node((r + n - k) % n),
                        messages: s,
                        barrier: false,
                    },
                );
            }
        }
        self.mark_phase(comm);
    }

    /// Dissemination barrier: `⌈log₂ n⌉` rounds; in round `k` rank `r`
    /// sends one packet to `r + 2^k` and waits for one from `r − 2^k`.
    /// Unit messages regardless of intensity.
    fn lower_barrier(&mut self, comm: Comm) {
        let n = comm.len;
        let mut dist = 1;
        while dist < n {
            for r in 0..n {
                self.push(
                    comm.node(r),
                    Op::Send {
                        dst: comm.node((r + dist) % n),
                        messages: 1,
                    },
                );
            }
            for r in 0..n {
                self.push(
                    comm.node(r),
                    Op::Recv {
                        from: comm.node((r + n - dist) % n),
                        messages: 1,
                        barrier: true,
                    },
                );
            }
            dist <<= 1;
        }
        self.mark_phase(comm);
    }

    /// Recursive-halving tree on virtual ranks (rotated so `root` is
    /// virtual rank 0). The holder of `[lo, hi)` hands `[mid, hi)` off to
    /// `mid` and recurses. With `weighted` (scatter) the edge carries
    /// `s × (hi − mid)` packets — the moved subtree — else a constant `s`
    /// (broadcast).
    fn bcast_tree(
        &mut self,
        comm: Comm,
        root: usize,
        lo: usize,
        hi: usize,
        s: u32,
        weighted: bool,
    ) {
        if hi - lo <= 1 {
            return;
        }
        let mid = lo + (hi - lo).div_ceil(2);
        let edge = if weighted {
            edge_messages(s, hi - mid)
        } else {
            s
        };
        let n = comm.len;
        self.transfer(comm, (lo + root) % n, (mid + root) % n, edge, false);
        self.bcast_tree(comm, root, lo, mid, s, weighted);
        self.bcast_tree(comm, root, mid, hi, s, weighted);
    }

    /// The reverse tree: children gather first, then `mid` forwards its
    /// whole subtree (`s × (hi − mid)` packets) to `lo`.
    fn gather_tree(&mut self, comm: Comm, root: usize, lo: usize, hi: usize, s: u32) {
        if hi - lo <= 1 {
            return;
        }
        let mid = lo + (hi - lo).div_ceil(2);
        self.gather_tree(comm, root, lo, mid, s);
        self.gather_tree(comm, root, mid, hi, s);
        let n = comm.len;
        self.transfer(
            comm,
            (mid + root) % n,
            (lo + root) % n,
            edge_messages(s, hi - mid),
            false,
        );
    }

    /// Phased halo exchange: phase `p` computes, then exchanges with the
    /// ±1 wrap-around neighbours along the `p`-th usable grid axis (one
    /// neighbour when the axis has exactly two points).
    fn lower_halo(&mut self, comm: Comm, phases: u32, messages: u32, compute_ns: u64) {
        let s = self.scale(messages);
        for p in 0..phases as usize {
            let axis = self.axes[p];
            for rank in 0..comm.len {
                let node = comm.node(rank);
                if compute_ns > 0 {
                    self.push(
                        node,
                        Op::Compute {
                            delay_ns: compute_ns,
                        },
                    );
                }
                for neighbour in self.axis_neighbors(node, axis) {
                    self.push(
                        node,
                        Op::Send {
                            dst: neighbour,
                            messages: s,
                        },
                    );
                }
            }
            for rank in 0..comm.len {
                let node = comm.node(rank);
                for neighbour in self.axis_neighbors(node, axis) {
                    self.push(
                        node,
                        Op::Recv {
                            from: neighbour,
                            messages: s,
                            barrier: false,
                        },
                    );
                }
            }
            self.mark_phase(comm);
        }
    }

    /// The ±1 wrap-around neighbours of `node` along one grid axis,
    /// deduplicated (a size-2 axis has one neighbour, not two). The
    /// relation is symmetric, so sends and receives pair up exactly.
    fn axis_neighbors(&self, node: NodeId, axis: usize) -> Vec<NodeId> {
        let (x, y, z) = self.grid.coords(node);
        let dims = [self.grid.x, self.grid.y, self.grid.z];
        let size = dims[axis];
        let mut out = Vec::with_capacity(2);
        for delta in [1, size - 1] {
            let mut c = [x, y, z];
            c[axis] = (c[axis] + delta) % size;
            let neighbour = self.grid.node(c[0], c[1], c[2]);
            if neighbour != node && !out.contains(&neighbour) {
                out.push(neighbour);
            }
        }
        out
    }
}

/// Largest power of two ≤ `n` (`n ≥ 1`).
fn prev_pow2(n: usize) -> usize {
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

/// A tree edge moving `subtree` ranks' worth of `s`-packet payloads.
fn edge_messages(s: u32, subtree: usize) -> u32 {
    (s as u64 * subtree as u64).min(u32::MAX as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::{Dragonfly, HyperX, HyperXConfig};
    use std::collections::HashMap;

    fn tiny() -> AnyTopology {
        // 2 × 4 × 9 grid = 72 nodes (not a power of two).
        Dragonfly::new(DragonflyConfig::tiny()).into()
    }

    fn pow2_topo() -> AnyTopology {
        // 2 nodes/router on a 4 × 4 router grid = 32 nodes.
        HyperX::new(HyperXConfig {
            p: 2,
            rows: 4,
            cols: 4,
        })
        .into()
    }

    /// Structural invariant of every lowering: per (src, dst) pair, the
    /// packets sent equal the packets expected, and nothing self-sends.
    fn assert_matched(programs: &[NodeProgram]) {
        let mut sent: HashMap<(usize, usize), u64> = HashMap::new();
        let mut expected: HashMap<(usize, usize), u64> = HashMap::new();
        for (i, program) in programs.iter().enumerate() {
            for op in program.ops() {
                match op {
                    Op::Send { dst, messages } => {
                        assert_ne!(dst.index(), i, "node {i} sends to itself");
                        *sent.entry((i, dst.index())).or_default() += messages as u64;
                    }
                    Op::Recv { from, messages, .. } => {
                        *expected.entry((from.index(), i)).or_default() += messages as u64;
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(sent, expected);
    }

    fn send_total(program: &NodeProgram) -> u64 {
        program
            .ops()
            .map(|op| match op {
                Op::Send { messages, .. } => messages as u64,
                _ => 0,
            })
            .sum()
    }

    fn recv_total(program: &NodeProgram) -> u64 {
        program
            .ops()
            .map(|op| match op {
                Op::Recv { messages, .. } => messages as u64,
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn allreduce_on_a_power_of_two_sends_log2_rounds() {
        let topo = pow2_topo();
        let programs = WorkloadSpec::AllReduce { messages: 4 }
            .compile(&topo, 1.0)
            .unwrap();
        assert_matched(&programs);
        // 32 ranks → 5 rounds of 4 messages from every rank.
        for program in &programs {
            assert_eq!(send_total(program), 5 * 4);
        }
    }

    #[test]
    fn allreduce_folds_non_power_of_two_sizes() {
        let topo = tiny(); // 72 = 64 + 8
        let programs = WorkloadSpec::AllReduce { messages: 2 }
            .compile(&topo, 1.0)
            .unwrap();
        assert_matched(&programs);
        // The 8 folded ranks only fold in and out again.
        for program in &programs[64..] {
            assert_eq!(send_total(program), 2);
            assert_eq!(recv_total(program), 2);
        }
        // Participating ranks run 6 doubling rounds plus any fold edges.
        for program in &programs[..64] {
            assert!(send_total(program) >= 6 * 2);
        }
    }

    #[test]
    fn alltoall_reaches_every_peer() {
        let topo = tiny();
        let n = topo.num_nodes() as u64;
        let programs = WorkloadSpec::AllToAll { messages: 3 }
            .compile(&topo, 1.0)
            .unwrap();
        assert_matched(&programs);
        for program in &programs {
            assert_eq!(send_total(program), (n - 1) * 3);
        }
    }

    #[test]
    fn barrier_messages_ignore_intensity() {
        let topo = tiny();
        let programs = WorkloadSpec::Barrier.compile(&topo, 5.0).unwrap();
        assert_matched(&programs);
        let rounds = (topo.num_nodes() as f64).log2().ceil() as u64;
        for program in &programs {
            assert_eq!(send_total(program), rounds);
            for op in program.ops() {
                if let Op::Send { messages, .. } = op {
                    assert_eq!(messages, 1);
                }
                if let Op::Recv { barrier, .. } = op {
                    assert!(barrier);
                }
            }
        }
    }

    #[test]
    fn scatter_and_gather_move_subtree_sized_edges() {
        let topo = tiny();
        let n = topo.num_nodes() as u64;
        let root = 5;
        let scatter = WorkloadSpec::Scatter { root, messages: 2 }
            .compile(&topo, 1.0)
            .unwrap();
        assert_matched(&scatter);
        assert_eq!(send_total(&scatter[root]), (n - 1) * 2);
        let gather = WorkloadSpec::Gather { root, messages: 2 }
            .compile(&topo, 1.0)
            .unwrap();
        assert_matched(&gather);
        assert_eq!(recv_total(&gather[root]), (n - 1) * 2);
        let bcast = WorkloadSpec::Broadcast { root, messages: 2 }
            .compile(&topo, 1.0)
            .unwrap();
        assert_matched(&bcast);
        // Broadcast edges are constant-size: every non-root receives s.
        for (i, program) in bcast.iter().enumerate() {
            if i != root {
                assert_eq!(recv_total(program), 2);
            }
        }
    }

    #[test]
    fn halo_phases_walk_the_usable_axes() {
        let topo = tiny(); // grid 2 × 4 × 9: all three axes usable
        let programs = WorkloadSpec::HaloExchange {
            phases: 2,
            messages: 4,
            compute_ns: 100,
        }
        .compile(&topo, 1.0)
        .unwrap();
        assert_matched(&programs);
        for program in &programs {
            // Phase 0 exchanges along x (size 2 → one neighbour), phase 1
            // along y (size 4 → two neighbours): 3 × 4 messages total.
            assert_eq!(send_total(program), (1 + 2) * 4);
            let computes = program
                .ops()
                .filter(|op| matches!(op, Op::Compute { .. }))
                .count();
            assert_eq!(computes, 2);
            let phases: Vec<u32> = program
                .ops()
                .filter_map(|op| match op {
                    Op::Phase { index } => Some(index),
                    _ => None,
                })
                .collect();
            assert_eq!(phases, vec![0, 1]);
        }
    }

    #[test]
    fn intensity_scales_collective_messages() {
        let topo = pow2_topo();
        let programs = WorkloadSpec::AllReduce { messages: 4 }
            .compile(&topo, 2.5)
            .unwrap();
        // ceil(4 × 2.5) = 10 per round.
        for program in &programs {
            assert_eq!(send_total(program), 5 * 10);
        }
        // Intensity never scales a collective to zero.
        let faint = WorkloadSpec::AllReduce { messages: 4 }
            .compile(&topo, 1e-6)
            .unwrap();
        for program in &faint {
            assert_eq!(send_total(program), 5);
        }
        assert!(WorkloadSpec::Barrier.compile(&topo, 0.0).is_err());
    }

    #[test]
    fn combinators_compose_and_mix_partitions_contiguously() {
        let topo = tiny();
        let n = topo.num_nodes();
        let spec = WorkloadSpec::Sequence(vec![
            WorkloadSpec::Repeat {
                times: 2,
                body: Box::new(WorkloadSpec::AllReduce { messages: 2 }),
            },
            WorkloadSpec::Mix(vec![
                WorkloadSpec::AllToAll { messages: 1 },
                WorkloadSpec::Barrier,
            ]),
            WorkloadSpec::Barrier,
        ]);
        let programs = spec.compile(&topo, 1.0).unwrap();
        assert_matched(&programs);
        assert_eq!(programs.len(), n);
        assert!(programs.iter().all(|p| !p.is_empty()));
        // A pure mix never sends across its chunk boundary.
        let half = n / 2;
        let mix_only = WorkloadSpec::Mix(vec![
            WorkloadSpec::AllToAll { messages: 1 },
            WorkloadSpec::Barrier,
        ])
        .compile(&topo, 1.0)
        .unwrap();
        assert_matched(&mix_only);
        for (i, program) in mix_only.iter().enumerate() {
            for op in program.ops() {
                if let Op::Send { dst, .. } = op {
                    assert_eq!(
                        i < half,
                        dst.index() < half,
                        "mix chunk leaked: {i} -> {}",
                        dst.index()
                    );
                }
            }
        }
    }

    #[test]
    fn phase_indices_clamp_below_max_phases() {
        let topo = pow2_topo();
        let spec = WorkloadSpec::Repeat {
            times: MAX_PHASES + 8,
            body: Box::new(WorkloadSpec::Compute { ns: 10 }),
        };
        let programs = spec.compile(&topo, 1.0).unwrap();
        let max_index = programs[0]
            .ops()
            .filter_map(|op| match op {
                Op::Phase { index } => Some(index),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(max_index, MAX_PHASES - 1);
    }

    /// `spec` lowered with every `repeat` unrolled: each node's ops in
    /// execution order, as a program without loops holds them.
    fn unrolled(spec: &WorkloadSpec, topo: &AnyTopology) -> Vec<Vec<Op>> {
        let grid = Grid3D::for_system(topo);
        let axes = usable_axes(&grid);
        let mut lowering = Lowering {
            unroll: true,
            ..Lowering::new(grid, axes, 1.0, topo.num_nodes())
        };
        let len = topo.num_nodes();
        lowering.lower(spec, Comm { start: 0, len });
        lowering
            .programs
            .iter()
            .map(|p| p.ops().collect())
            .collect()
    }

    fn halo(phases: u32) -> WorkloadSpec {
        WorkloadSpec::HaloExchange {
            phases,
            messages: 2,
            compute_ns: 50,
        }
    }

    fn repeat(times: u32, body: WorkloadSpec) -> WorkloadSpec {
        WorkloadSpec::Repeat {
            times,
            body: Box::new(body),
        }
    }

    #[test]
    fn loops_run_exactly_as_their_unrolled_programs() {
        use WorkloadSpec::{AllReduce, AllToAll, Barrier, Mix, Sequence};
        let topo = tiny();
        let specs = [
            (
                "repeat inside sequence",
                Sequence(vec![
                    Barrier,
                    repeat(3, Sequence(vec![halo(2), AllReduce { messages: 1 }])),
                    halo(1),
                    repeat(2, Barrier),
                ]),
            ),
            (
                "nested repeat",
                repeat(4, Sequence(vec![repeat(3, halo(1)), Barrier])),
            ),
            (
                "mix inside repeat",
                repeat(
                    5,
                    Mix(vec![
                        Sequence(vec![AllToAll { messages: 1 }, AllReduce { messages: 2 }]),
                        repeat(2, Barrier),
                        WorkloadSpec::Compute { ns: 70 },
                    ]),
                ),
            ),
            (
                "phases past MAX_PHASES",
                Sequence(vec![
                    repeat(MAX_PHASES - 3, WorkloadSpec::Compute { ns: 10 }),
                    repeat(7, Sequence(vec![halo(2), repeat(2, Barrier)])),
                ]),
            ),
            (
                "a repeat run once",
                Sequence(vec![repeat(1, halo(1)), Barrier]),
            ),
        ];
        for (what, spec) in specs {
            let programs = spec.compile(&topo, 1.0).unwrap();
            let oracle = unrolled(&spec, &topo);
            assert_matched(&programs);
            for (node, (program, want)) in programs.iter().zip(&oracle).enumerate() {
                assert_eq!(program.len(), want.len(), "{what}: node {node}'s length");
                for (pc, want) in want.iter().enumerate() {
                    assert_eq!(
                        program.op_at(pc),
                        Some(*want),
                        "{what}: node {node}, pc {pc}"
                    );
                }
                assert_eq!(program.op_at(want.len()), None, "{what}: node {node} ends");
            }
            if what == "phases past MAX_PHASES" {
                let last = oracle[0].iter().rev().find_map(|op| match op {
                    Op::Phase { index } => Some(*index),
                    _ => None,
                });
                assert_eq!(last, Some(MAX_PHASES - 1), "the slots do pass the clamp");
            }
        }
    }

    #[test]
    fn a_program_does_not_grow_with_the_repeat_count() {
        let topo = tiny();
        let heap = |times| {
            let spec = repeat(
                times,
                WorkloadSpec::Sequence(vec![halo(3), WorkloadSpec::AllReduce { messages: 2 }]),
            );
            let programs = spec.compile(&topo, 1.0).unwrap();
            let ops: usize = programs.iter().map(NodeProgram::len).sum();
            let bytes: usize = programs.iter().map(NodeProgram::memory_bytes).sum();
            (ops, bytes)
        };
        let (two, two_bytes) = heap(2);
        let (many, many_bytes) = heap(200);
        assert_eq!(many, two * 100, "the unrolled lengths scale with the count");
        assert_eq!(many_bytes, two_bytes, "the heap does not");
    }

    #[test]
    fn a_node_that_would_wrap_its_packet_ids_is_refused() {
        let topo = tiny();
        // The root of a scatter sends 71 × 14,800 = 1,050,800 packets, past
        // the 2^20 ids of a node: its last ids would be node 1's.
        let scatter = WorkloadSpec::Scatter {
            root: 0,
            messages: 14_800,
        };
        let err = scatter.compile(&topo, 1.0).unwrap_err();
        assert!(err.contains("node 0 sends 1050800 packets"), "{err}");
        // The count multiplies a loop's body by its iterations: 2^10 ×
        // 2^10 sends along the two-point x axis is exactly every id a node
        // has, and one iteration more is one too many.
        let x_axis = WorkloadSpec::HaloExchange {
            phases: 1,
            messages: 1 << 10,
            compute_ns: 0,
        };
        let halo_x = |times| repeat(times, x_axis.clone());
        let programs = halo_x(1 << 10).compile(&topo, 1.0).unwrap();
        assert_eq!(programs[5].sends(), 1 << WORKLOAD_SEQ_BITS);
        let err = halo_x((1 << 10) + 1).compile(&topo, 1.0).unwrap_err();
        assert!(err.contains("node 0 sends 1049600 packets"), "{err}");
    }

    #[test]
    fn compiled_collectives_drain_on_the_closed_loop_engine() {
        use dragonfly_engine::injector::EmptyInjector;
        use dragonfly_engine::observer::CountingObserver;
        use dragonfly_engine::routing::RoutingAlgorithm;
        use dragonfly_engine::testing::MinimalTestRouting;
        use dragonfly_engine::{Engine, EngineConfig, ShardKind};

        let topo = tiny();
        let n = topo.num_nodes();
        let spec = WorkloadSpec::Sequence(vec![
            WorkloadSpec::AllReduce { messages: 2 },
            WorkloadSpec::Barrier,
        ]);
        let programs = spec.compile(&topo, 1.0).unwrap();
        let expected_sends: u64 = programs.iter().map(send_total).sum();
        let algo = MinimalTestRouting;
        let mut cfg = EngineConfig::paper(algo.num_vcs());
        cfg.shards = ShardKind::Fixed(2);
        let mut engine = Engine::new(
            topo,
            cfg,
            &algo,
            Box::new(EmptyInjector),
            CountingObserver::default(),
            42,
        );
        engine.install_workload(programs);
        engine.run_to_drain(100_000_000);
        assert_eq!(engine.tasks_finished(), n as u64);
        let stats = engine.stats();
        assert_eq!(stats.generated, expected_sends);
        assert_eq!(stats.delivered, expected_sends);
    }
}
