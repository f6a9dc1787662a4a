//! Packets (single-flit messages) and their in-flight routing state.
//!
//! # A packet is one cache line
//!
//! A [`Packet`] is 64 bytes aligned to 64, so an arena slot is one cache
//! line. It keeps what the packet carries and derives what the topology
//! knows. 63 bytes of fields:
//!
//! | bytes | fields | encoding |
//! |---|---|---|
//! | 32 | `id`, `created_ns`, `injected_ns`, `last_decision_ns` | `u64` |
//! | 20 | `src`, `dst`, `dst_router`, last router, Valiant `via` | `u32`; `u32::MAX` is none |
//! | 4 | last output port, pending port | `u16`; `u16::MAX` is none |
//! | 2 | `dst_group` | `u16` |
//! | 4 | `src_slot`, `hops`, `vc`, pending VC | `u8` |
//! | 1 | flags | route mode, `via` kind, three route bits |
//!
//! `via` is the intermediate group or the intermediate router of a
//! Valiant leg; a route never has both.
//!
//! What is derived, and where:
//!
//! * `src_router` and `src_group` come from `src` through the topology
//!   ([`Packet::src_router`], [`Packet::src_group`]). Agents read each at
//!   most once per decision: the source-router test and the
//!   intermediate-group test, plus UGAL's, Valiant's and PAR's source
//!   domain.
//! * The size is `EngineConfig::packet_bytes` for every packet. The engine
//!   hands it to [`crate::observer::SimObserver::packet_delivered`].
//!
//! `dst_group` and `src_slot` stay stored: they index the two-level
//! Q-table on every decision, and `dst_router` is read on every hop.
//! `TopologySpec::validate` (`dragonfly-topology`) refuses a shape whose
//! ids do not fit these widths: at most 256 host ports per router, radix
//! 65,535, 65,536 domains, and router and node ids below the `u32::MAX`
//! sentinel.
//!
//! # The wire form
//!
//! A snapshot stores the fields above that it cannot derive, as columns
//! ([`crate::checkpoint::ArenaCheckpoint`]): `id`, `src`, `dst`, the three
//! times, the last router and port, `via`, the pending port and VC, `hops`,
//! `vc` and the flags, each raw, sentinels included. [`Packet::push_to`]
//! appends a packet to them, and [`Packet::from_columns`] reads one back:
//! it derives `dst_router`, `dst_group` and `src_slot` again and refuses a
//! node, router, domain or VC the engine does not have, and a flags byte
//! with bits no packet sets or naming two `via` kinds.

use crate::arena::PacketRef;
use crate::checkpoint::ArenaCheckpoint;
use crate::config::EngineConfig;
use crate::time::SimTime;
use dragonfly_topology::ids::{GroupId, NodeId, Port, RouterId};
use dragonfly_topology::Topology;

/// No router and no Valiant target.
const NO_ID: u32 = u32::MAX;
/// No port.
const NO_PORT: u16 = u16::MAX;

// Bits of `Packet::flags`.
const VALIANT: u8 = 1;
const VIA_GROUP: u8 = 1 << 1;
const VIA_ROUTER: u8 = 1 << 2;
const REACHED_INTERMEDIATE: u8 = 1 << 3;
const INT_GROUP_DECISION_DONE: u8 = 1 << 4;
const PAR_REEVALUATED: u8 = 1 << 5;
/// Every bit a packet's flags may hold.
const ROUTE_BITS: u8 = VALIANT
    | VIA_GROUP
    | VIA_ROUTER
    | REACHED_INTERMEDIATE
    | INT_GROUP_DECISION_DONE
    | PAR_REEVALUATED;

/// Which routing mode a packet is currently committed to.
///
/// Minimal/non-minimal selection happens at the source router (and, for
/// PAR and Q-adaptive, possibly at one more router); afterwards the mode is
/// recorded here so downstream routers know how to forward the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// Forward along the unique minimal path to the destination.
    Minimal,
    /// Valiant-style non-minimal: first reach an intermediate group (and
    /// optionally a specific intermediate router), then route minimally.
    Valiant,
}

/// The intermediate target of a Valiant leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// An intermediate group (VALg/UGALg-style paths).
    Group(GroupId),
    /// An intermediate router (VALn/UGALn/PAR-style paths).
    Router(RouterId),
}

/// A single-flit packet travelling through the network (see the module
/// docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(align(64))]
pub struct Packet {
    /// Unique, monotonically increasing id.
    pub id: u64,
    /// Time the message was generated at the node.
    pub created_ns: SimTime,
    /// Time the packet left the NIC and entered the router fabric.
    pub injected_ns: SimTime,
    /// The time the previous router made its forwarding decision; the
    /// per-hop RL reward is `now - last_decision_ns`.
    pub last_decision_ns: SimTime,
    /// Generating compute node.
    pub src: NodeId,
    /// Destination compute node.
    pub dst: NodeId,
    /// Router the destination node is attached to.
    pub dst_router: RouterId,
    last_router: u32,
    via: u32,
    last_out_port: u16,
    pending_port: u16,
    dst_group: u16,
    /// Host-port slot of the source node on its router, in `0..p`
    /// (second index of the two-level Q-table).
    pub src_slot: u8,
    /// Router-to-router hops taken so far.
    pub hops: u8,
    /// Current virtual channel.
    pub vc: u8,
    pending_vc: u8,
    flags: u8,
}

impl Packet {
    /// The packet `src`'s NIC generates for `dst` at `created_ns`: no hop
    /// taken, minimal, injected and last decided at `created_ns` (injection
    /// moves both to its own time).
    ///
    /// # Panics
    ///
    /// If `dst`'s domain or `src`'s host slot does not fit its field, which
    /// `TopologySpec::validate` refuses.
    pub fn new(
        topo: &impl Topology,
        id: u64,
        src: NodeId,
        dst: NodeId,
        created_ns: SimTime,
    ) -> Self {
        let dst_router = topo.router_of_node(dst);
        Self {
            id,
            created_ns,
            injected_ns: created_ns,
            last_decision_ns: created_ns,
            src,
            dst,
            dst_router,
            last_router: NO_ID,
            via: NO_ID,
            last_out_port: NO_PORT,
            pending_port: NO_PORT,
            dst_group: u16::try_from(topo.domain_of_router(dst_router).index())
                .expect("a topology has at most 65,536 domains"),
            src_slot: u8::try_from(topo.node_slot(src))
                .expect("a router has at most 256 host ports"),
            hops: 0,
            vc: 0,
            pending_vc: 0,
            flags: 0,
        }
    }

    /// End-to-end latency if the packet is delivered at `now`.
    #[inline]
    pub fn latency_ns(&self, now: SimTime) -> SimTime {
        now.saturating_sub(self.created_ns)
    }

    /// Router the source node is attached to (derived from `src`).
    #[inline]
    pub fn src_router(&self, topo: &impl Topology) -> RouterId {
        topo.router_of_node(self.src)
    }

    /// Group of the source node (derived from `src`).
    #[inline]
    pub fn src_group(&self, topo: &impl Topology) -> GroupId {
        topo.domain_of_router(self.src_router(topo))
    }

    /// Group of the destination node (first index of the two-level
    /// Q-table).
    #[inline]
    pub fn dst_group(&self) -> GroupId {
        GroupId(u32::from(self.dst_group))
    }

    /// Whether the packet is still at its source router (no fabric hop yet).
    #[inline]
    pub fn at_source_router(&self, topo: &impl Topology, current: RouterId) -> bool {
        self.hops == 0 && current == self.src_router(topo)
    }

    /// Whether `group` is neither the packet's source nor destination group
    /// (i.e. an intermediate group).
    #[inline]
    pub fn is_intermediate_group(&self, topo: &impl Topology, group: GroupId) -> bool {
        group != self.dst_group() && group != self.src_group(topo)
    }

    /// Minimal or Valiant.
    #[inline]
    pub fn route_mode(&self) -> RouteMode {
        if self.flags & VALIANT != 0 {
            RouteMode::Valiant
        } else {
            RouteMode::Minimal
        }
    }

    /// The intermediate target of the Valiant leg, if one was committed.
    #[inline]
    pub fn via(&self) -> Option<Via> {
        match self.flags & (VIA_GROUP | VIA_ROUTER) {
            VIA_GROUP => Some(Via::Group(GroupId(self.via))),
            VIA_ROUTER => Some(Via::Router(RouterId(self.via))),
            _ => None,
        }
    }

    /// Commit the packet to a Valiant leg through `via`, not yet reached.
    /// `None` marks it non-minimal without a target (Q-adaptive's source
    /// decision).
    #[inline]
    pub fn commit_valiant(&mut self, via: Option<Via>) {
        let (kind, id) = match via {
            Some(Via::Group(g)) => (VIA_GROUP, g.0),
            Some(Via::Router(r)) => (VIA_ROUTER, r.0),
            None => (0, NO_ID),
        };
        self.flags =
            (self.flags & !(VIA_GROUP | VIA_ROUTER | REACHED_INTERMEDIATE)) | VALIANT | kind;
        self.via = id;
    }

    /// Whether the packet has reached its intermediate target and switched
    /// to the minimal leg.
    #[inline]
    pub fn reached_intermediate(&self) -> bool {
        self.flags & REACHED_INTERMEDIATE != 0
    }

    /// Record that the intermediate target is reached.
    #[inline]
    pub fn set_reached_intermediate(&mut self) {
        self.flags |= REACHED_INTERMEDIATE;
    }

    /// Q-adaptive: whether the first router visited in an intermediate
    /// group has already made its (possibly rerouting) decision.
    #[inline]
    pub fn int_group_decision_done(&self) -> bool {
        self.flags & INT_GROUP_DECISION_DONE != 0
    }

    /// Record the intermediate-group decision.
    #[inline]
    pub fn set_int_group_decision_done(&mut self) {
        self.flags |= INT_GROUP_DECISION_DONE;
    }

    /// PAR: whether a source-group router has already re-evaluated the
    /// minimal decision.
    #[inline]
    pub fn par_reevaluated(&self) -> bool {
        self.flags & PAR_REEVALUATED != 0
    }

    /// Record the PAR re-evaluation.
    #[inline]
    pub fn set_par_reevaluated(&mut self) {
        self.flags |= PAR_REEVALUATED;
    }

    /// The previous router and the output port it used for this packet
    /// (the Q-table column its feedback updates); `None` at the source
    /// router.
    #[inline]
    pub fn last_hop(&self) -> Option<(RouterId, Port)> {
        (self.last_router != NO_ID && self.last_out_port != NO_PORT)
            .then_some((RouterId(self.last_router), Port(self.last_out_port)))
    }

    /// Record that `router` forwarded this packet on `port`.
    #[inline]
    pub fn set_last_hop(&mut self, router: RouterId, port: Port) {
        self.last_router = router.0;
        self.last_out_port = port.0;
    }

    /// Routing decision cached at the current router so that a blocked
    /// packet retries the same output port and VC instead of re-rolling.
    #[inline]
    pub fn pending_decision(&self) -> Option<(Port, u8)> {
        (self.pending_port != NO_PORT).then_some((Port(self.pending_port), self.pending_vc))
    }

    /// Cache (or, with `None`, clear) the pending decision.
    #[inline]
    pub fn set_pending_decision(&mut self, decision: Option<(Port, u8)>) {
        (self.pending_port, self.pending_vc) = match decision {
            Some((port, vc)) => (port.0, vc),
            None => (NO_PORT, 0),
        };
    }

    /// Append this packet to the snapshot columns `arena`; its slot is the
    /// returned ref.
    pub(crate) fn push_to(&self, arena: &mut ArenaCheckpoint) -> PacketRef {
        let slot = PacketRef(u32::try_from(arena.len()).expect("u32 packet refs"));
        arena.id.push(self.id);
        arena.src.push(self.src);
        arena.dst.push(self.dst);
        arena.created_ns.push(self.created_ns);
        arena.injected_ns.push(self.injected_ns);
        arena.last_decision_ns.push(self.last_decision_ns);
        arena.last_router.push(self.last_router);
        arena.last_out_port.push(self.last_out_port);
        arena.via.push(self.via);
        arena.pending_port.push(self.pending_port);
        arena.pending_vc.push(self.pending_vc);
        arena.hops.push(self.hops);
        arena.vc.push(self.vc);
        arena.flags.push(self.flags);
        slot
    }

    /// The packet in slot `i` of the snapshot columns `arena`, whose
    /// columns are of equal length, or why this engine could hold no such
    /// packet: a node, router or domain outside the topology, a VC the
    /// engine does not run, or a flags byte with bits no packet sets, naming
    /// two `via` kinds, or none for a `via` that is set. The error names the
    /// packet and the column.
    pub(crate) fn from_columns(
        arena: &ArenaCheckpoint,
        i: usize,
        topo: &impl Topology,
        cfg: &EngineConfig,
    ) -> Result<Self, String> {
        let id = arena.id[i];
        let refuse = |what: String| Err(format!("packet {id} has {what}"));
        let (nodes, routers, domains) = (topo.num_nodes(), topo.num_routers(), topo.num_domains());
        let (src, dst) = (arena.src[i], arena.dst[i]);
        for (column, node) in [("src", src), ("dst", dst)] {
            if node.index() >= nodes {
                return refuse(format!("{column} = {}, outside the {nodes} nodes", node.0));
            }
        }
        let (flags, via) = (arena.flags[i], arena.via[i]);
        if flags & !ROUTE_BITS != 0 {
            return refuse(format!("flags = {flags:#04x}, with bits no packet sets"));
        }
        let refused_via = match flags & (VIA_GROUP | VIA_ROUTER) {
            0 if via != NO_ID => Some(format!("via = {via}, with no via kind in its flags")),
            VIA_GROUP if via as usize >= domains => {
                Some(format!("via = {via}, outside the {domains} domains"))
            }
            VIA_ROUTER if via as usize >= routers => {
                Some(format!("via = {via}, outside the {routers} routers"))
            }
            kinds if kinds == VIA_GROUP | VIA_ROUTER => {
                Some(format!("flags = {flags:#04x}, naming two via kinds"))
            }
            _ => None,
        };
        if let Some(what) = refused_via {
            return refuse(what);
        }
        let last_router = arena.last_router[i];
        if last_router != NO_ID && last_router as usize >= routers {
            return refuse(format!(
                "last_router = {last_router}, outside the {routers} routers"
            ));
        }
        let pending_port = arena.pending_port[i];
        let vcs = [
            ("vc", Some(arena.vc[i])),
            (
                "pending_vc",
                (pending_port != NO_PORT).then_some(arena.pending_vc[i]),
            ),
        ];
        for (column, vc) in vcs {
            if let Some(vc) = vc.filter(|&vc| usize::from(vc) >= cfg.num_vcs) {
                let vcs = cfg.num_vcs;
                return refuse(format!("{column} = {vc}, the engine runs {vcs} VCs"));
            }
        }
        Ok(Self {
            injected_ns: arena.injected_ns[i],
            last_decision_ns: arena.last_decision_ns[i],
            last_router,
            via,
            last_out_port: arena.last_out_port[i],
            pending_port,
            hops: arena.hops[i],
            vc: arena.vc[i],
            pending_vc: arena.pending_vc[i],
            flags,
            ..Packet::new(topo, id, src, dst, arena.created_ns[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::{
        AnyTopology, Dragonfly, FatTree, FatTreeConfig, HyperX, HyperXConfig,
    };

    fn tiny() -> AnyTopology {
        Dragonfly::new(DragonflyConfig::tiny()).into()
    }

    /// Node 0 (router 0, group 0) to node 10 (router 5, group 1) of the
    /// tiny Dragonfly, generated at 100 ns.
    fn packet() -> Packet {
        Packet::new(&tiny(), 1, NodeId(0), NodeId(10), 100)
    }

    #[test]
    fn a_packet_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Packet>(), 64);
        assert_eq!(std::mem::align_of::<Packet>(), 64);
    }

    #[test]
    fn latency_is_measured_from_generation() {
        let p = packet();
        assert_eq!(p.latency_ns(600), 500);
        assert_eq!(p.latency_ns(50), 0, "saturates instead of underflowing");
    }

    #[test]
    fn source_router_detection() {
        let topo = tiny();
        let mut p = packet();
        assert!(p.at_source_router(&topo, RouterId(0)));
        assert!(!p.at_source_router(&topo, RouterId(1)));
        p.hops = 1;
        assert!(!p.at_source_router(&topo, RouterId(0)));
    }

    #[test]
    fn intermediate_group_detection() {
        let topo = tiny();
        let p = packet();
        assert_eq!(
            (p.src_group(&topo), p.dst_group()),
            (GroupId(0), GroupId(1))
        );
        assert!(!p.is_intermediate_group(&topo, GroupId(0)));
        assert!(!p.is_intermediate_group(&topo, GroupId(1)));
        assert!(p.is_intermediate_group(&topo, GroupId(2)));
    }

    #[test]
    fn default_route_info_is_minimal() {
        let p = packet();
        assert_eq!((p.route_mode(), p.via()), (RouteMode::Minimal, None));
        assert!(!p.reached_intermediate());
        assert!(!p.int_group_decision_done());
        assert!(!p.par_reevaluated());
        assert_eq!(p.flags, 0, "a fresh packet routes minimally");
    }

    #[test]
    fn packed_fields_hold_every_id_below_the_sentinels() {
        let mut p = packet();
        assert_eq!(
            (p.last_hop(), p.pending_decision(), p.via()),
            (None, None, None)
        );
        let (router, port) = (RouterId(NO_ID - 1), Port(NO_PORT - 1));
        p.set_last_hop(router, port);
        p.set_pending_decision(Some((port, u8::MAX)));
        assert_eq!(p.last_hop(), Some((router, port)));
        assert_eq!(p.pending_decision(), Some((port, u8::MAX)));
        p.set_pending_decision(None);
        assert_eq!(p.pending_decision(), None);
        for via in [Via::Router(router), Via::Group(GroupId(NO_ID - 1))] {
            p.set_reached_intermediate();
            p.commit_valiant(Some(via));
            assert_eq!((p.route_mode(), p.via()), (RouteMode::Valiant, Some(via)));
            assert!(!p.reached_intermediate(), "a new leg is not reached yet");
        }
    }

    /// splitmix64: a seeded stream for the state generator.
    fn next(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One of `n` ids; every fourth draw is the largest, `n - 1`.
    fn id(x: &mut u64, n: usize) -> usize {
        match next(x) % 4 {
            0 => n - 1,
            _ => (next(x) % n as u64) as usize,
        }
    }

    /// A random packet in a random route state: hops taken or not, Valiant
    /// via a group, via a router or neither, route bits, a pending
    /// decision, with ids and ports drawn up to the largest the topology
    /// has.
    fn random_packet(topo: &AnyTopology, cfg: &EngineConfig, x: &mut u64) -> Packet {
        let (nodes, routers) = (topo.num_nodes(), topo.num_routers());
        let src = NodeId::from_index(id(x, nodes));
        let dst = NodeId::from_index(id(x, nodes));
        let created = next(x) >> 1;
        let mut p = Packet::new(topo, next(x), src, dst, created);
        p.injected_ns = created + next(x) % 1_000;
        match next(x) % 3 {
            0 => {}
            1 => {
                let group = GroupId::from_index(id(x, topo.num_domains()));
                p.commit_valiant(Some(Via::Group(group)));
            }
            _ => p.commit_valiant(Some(Via::Router(RouterId::from_index(id(x, routers))))),
        }
        if next(x).is_multiple_of(4) {
            p.commit_valiant(None);
        }
        let bits = next(x);
        if bits & 1 != 0 {
            p.set_reached_intermediate();
        }
        if bits & 2 != 0 {
            p.set_int_group_decision_done();
        }
        if bits & 4 != 0 {
            p.set_par_reevaluated();
        }
        let vc = |x: &mut u64| (next(x) % cfg.num_vcs as u64) as u8;
        if next(x).is_multiple_of(2) {
            let last = RouterId::from_index(id(x, routers));
            let port = Port::from_index(id(x, topo.radix(last)));
            p.set_last_hop(last, port);
            p.hops = (1 + next(x) % 7) as u8;
            p.vc = vc(x);
            p.last_decision_ns = p.injected_ns + next(x) % 5_000;
        }
        if next(x).is_multiple_of(2) {
            let port = Port::from_index(id(x, topo.radix(p.dst_router)));
            p.set_pending_decision(Some((port, vc(x))));
        }
        p
    }

    #[test]
    fn packet_to_state_to_packet_is_the_identity_on_every_fabric() {
        // Through the snapshot columns and back: the columns hold the fields
        // the packet stores, raw, and the derived ones come back from them.
        let cfg = EngineConfig::paper(5);
        let fabrics: [AnyTopology; 3] = [
            Dragonfly::new(DragonflyConfig::small()).into(),
            FatTree::new(FatTreeConfig::small()).into(),
            HyperX::new(HyperXConfig::small()).into(),
        ];
        for topo in &fabrics {
            let mut x = 21;
            let mut columns = ArenaCheckpoint::default();
            let packets: Vec<Packet> = (0..2_000)
                .map(|_| random_packet(topo, &cfg, &mut x))
                .collect();
            for (i, p) in packets.iter().enumerate() {
                assert_eq!(p.push_to(&mut columns), PacketRef(i as u32));
                assert_eq!(
                    (columns.via[i], columns.flags[i], columns.last_router[i]),
                    (p.via, p.flags, p.last_router)
                );
            }
            assert!(columns.column_lens().iter().all(|&(_, n)| n == 2_000));
            let mut again = ArenaCheckpoint::default();
            for (i, p) in packets.iter().enumerate() {
                let back = Packet::from_columns(&columns, i, topo, &cfg)
                    .unwrap_or_else(|e| panic!("{} packet {i}: {e}", topo.kind_name()));
                assert_eq!(&back, p, "{} packet {i}", topo.kind_name());
                back.push_to(&mut again);
            }
            assert_eq!(again, columns, "{}", topo.kind_name());
        }
    }

    #[test]
    fn a_state_this_engine_cannot_hold_is_refused_by_field() {
        let topo = tiny();
        let cfg = EngineConfig::paper(5);
        let mut good = ArenaCheckpoint::default();
        let mut p = packet();
        p.set_pending_decision(Some((Port(3), 1)));
        p.push_to(&mut good);
        Packet::from_columns(&good, 0, &topo, &cfg).expect("the good one reads back");
        type Damage = fn(&mut ArenaCheckpoint);
        let cases: [(Damage, &str); 11] = [
            (|s| s.src[0] = NodeId(72), "src = 72, outside the 72 nodes"),
            (|s| s.dst[0] = NodeId(90), "dst = 90, outside the 72 nodes"),
            (|s| s.vc[0] = 5, "vc = 5, the engine runs 5 VCs"),
            (
                |s| s.pending_vc[0] = 7,
                "pending_vc = 7, the engine runs 5 VCs",
            ),
            (
                |s| s.last_router[0] = 36,
                "last_router = 36, outside the 36 routers",
            ),
            (
                |s| s.flags[0] = 1 << 6,
                "flags = 0x40, with bits no packet sets",
            ),
            (
                |s| s.flags[0] = VALIANT | VIA_GROUP | VIA_ROUTER,
                "flags = 0x07, naming two via kinds",
            ),
            (
                |s| {
                    s.flags[0] = VALIANT | VIA_GROUP;
                    s.via[0] = 9;
                },
                "via = 9, outside the 9 domains",
            ),
            (
                |s| {
                    s.flags[0] = VALIANT | VIA_ROUTER;
                    s.via[0] = 36;
                },
                "via = 36, outside the 36 routers",
            ),
            (|s| s.via[0] = 2, "via = 2, with no via kind in its flags"),
            (
                |s| {
                    s.flags[0] = VALIANT;
                    s.via[0] = 2;
                },
                "via = 2, with no via kind in its flags",
            ),
        ];
        for (damage, clue) in cases {
            let mut bad = good.clone();
            damage(&mut bad);
            let err = Packet::from_columns(&bad, 0, &topo, &cfg).expect_err(clue);
            assert_eq!(err, format!("packet 1 has {clue}"));
        }
        // Without a pending port, the pending VC is not read.
        let mut idle = good.clone();
        (idle.pending_port[0], idle.pending_vc[0]) = (NO_PORT, 0);
        Packet::from_columns(&idle, 0, &topo, &cfg).expect("no pending decision");
    }
}
