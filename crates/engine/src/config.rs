//! Engine configuration: link/router timing, buffer sizes and packet size.
//!
//! Defaults follow Section 5.1 of the paper: 128 B single-flit packets,
//! 20-packet VC buffers, 4 GB/s links, 30 ns local and 300 ns global link
//! latency (a 1:10 ratio).

use crate::time::SimTime;
use dragonfly_topology::paths::HopKind;
use serde::{Deserialize, Serialize};

/// How many conservative-parallel shards execute one simulation.
///
/// The engine partitions routers by locality domain (Dragonfly group,
/// fat-tree pod, HyperX row) into shards; each shard runs its own
/// calendar queue and packet arena, and shards synchronise on a lookahead
/// window equal to the topology's minimum cross-domain link latency (see
/// [`crate::sync`]). Because events are ordered by a content-derived key
/// rather than push order, **every shard count produces bit-for-bit
/// identical simulation output** — this knob only trades wall-clock speed
/// against thread usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardKind {
    /// One shard, no threads: the classic sequential event loop.
    #[default]
    Single,
    /// Exactly `n` shards (clamped to the number of groups).
    Fixed(usize),
    /// One shard per available CPU, capped at the number of groups.
    Auto,
}

impl ShardKind {
    /// The concrete shard count for a system with `num_domains` locality
    /// domains and a conservative lookahead of `lookahead_ns` (the
    /// topology's minimum cross-domain link latency).
    ///
    /// A zero lookahead leaves no conservative window, so sharding
    /// silently degrades to a single shard (results are identical either
    /// way; only parallelism is lost).
    pub fn resolve(self, num_domains: usize, lookahead_ns: SimTime) -> usize {
        if lookahead_ns == 0 {
            return 1;
        }
        let requested = match self {
            ShardKind::Single => 1,
            ShardKind::Fixed(n) => n,
            ShardKind::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        requested.clamp(1, num_domains.max(1))
    }
}

/// Timing, sizing and flow-control parameters of the simulated hardware.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Packet (single flit) size in bytes. Paper: 128 B.
    pub packet_bytes: u32,
    /// Link bandwidth in bytes per nanosecond (4.0 = 4 GB/s).
    pub link_bytes_per_ns: f64,
    /// Local (intra-group) link latency in ns. Paper: 30 ns.
    pub local_latency_ns: SimTime,
    /// Global (inter-group) link latency in ns. Paper: 300 ns.
    pub global_latency_ns: SimTime,
    /// Node-to-router (host) link latency in ns.
    pub host_latency_ns: SimTime,
    /// Router traversal (pipeline) latency in ns charged between a packet's
    /// arrival at an input buffer and its switch traversal.
    pub router_latency_ns: SimTime,
    /// Input-buffer capacity per (port, VC) in packets. Paper: 20.
    pub vc_buffer_packets: usize,
    /// Output-queue capacity per (port, VC) in packets.
    pub output_queue_packets: usize,
    /// Number of virtual channels. This is dictated by the routing
    /// algorithm (MIN 2, VALg 3, VALn/UGALn 4, PAR 5, Q-adaptive 5).
    pub num_vcs: usize,
    /// Conservative-parallel shard count (identical results for every
    /// value; `Single` is the sequential default).
    #[serde(default)]
    pub shards: ShardKind,
    /// Which window grid a sharded run uses (default `true`): half-lookahead
    /// windows with a gate that lets a shard run one window ahead of the
    /// slowest, or (`false`) lookahead windows in lockstep — see
    /// [`crate::sync`]. Both run the same loop, one worker per shard, and
    /// results are **bit-for-bit identical** either way (pinned by the mode
    /// matrices' pipeline axis). Ignored when `shards` resolves to 1
    /// or the lookahead is under 2 ns.
    #[serde(default = "default_pipeline")]
    pub pipeline: bool,
    /// How often a NIC retransmits a closed-loop workload message whose
    /// packet was dropped by a fault before giving up. `0` disables
    /// retransmission (every drop is final).
    #[serde(default = "default_max_retries")]
    pub max_retries: u32,
    /// Base retransmission backoff in ns; retry `k` (1-based) waits
    /// `retransmit_backoff_ns << (k - 1)` after the drop notice
    /// (deterministic exponential backoff, no jitter).
    #[serde(default = "default_retransmit_backoff_ns")]
    pub retransmit_backoff_ns: SimTime,
    /// Hop budget: a packet still in the fabric after this many hops is
    /// dropped (breaks routing livelock around faulted regions).
    #[serde(default = "default_ttl_hops")]
    pub ttl_hops: u8,
    /// Row-count threshold above which learning agents switch their
    /// Q-value storage from a dense table to the lazy paged table
    /// (`qadaptive_core::PagedQTable`), which stores a row from its first
    /// write on and answers every other row with its deterministic
    /// initial value. Paged and dense storage are observationally
    /// identical — same values, same argmin tie-breaks, same RNG
    /// consumption — so this knob only trades a small per-access
    /// indirection against memory that grows with the rows learned about,
    /// not with system size. The default keeps every paper-scale system
    /// (≤ a few thousand table rows) dense and pages the 100k-node-class
    /// systems.
    #[serde(default = "default_qtable_page_rows_threshold")]
    pub qtable_page_rows_threshold: usize,
}

/// Serde default for [`EngineConfig::pipeline`]: scenario files that
/// predate the field get the (result-identical) pipelined engine.
fn default_pipeline() -> bool {
    true
}

/// Serde default for [`EngineConfig::max_retries`].
fn default_max_retries() -> u32 {
    3
}

/// Serde default for [`EngineConfig::retransmit_backoff_ns`].
fn default_retransmit_backoff_ns() -> SimTime {
    2_000
}

/// Serde default for [`EngineConfig::ttl_hops`]: far above any legal
/// route of the shipped topologies, so fault-free runs never hit it.
fn default_ttl_hops() -> u8 {
    64
}

/// Serde default for [`EngineConfig::qtable_page_rows_threshold`]: above
/// every paper-scale table (1,056-node two-level: 132 rows; 2,550-node
/// Q-routing: 510 rows), below the 100k-node-class tables (≥ 4,624 rows).
fn default_qtable_page_rows_threshold() -> usize {
    4_096
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            packet_bytes: 128,
            link_bytes_per_ns: 4.0,
            local_latency_ns: 30,
            global_latency_ns: 300,
            host_latency_ns: 10,
            router_latency_ns: 100,
            vc_buffer_packets: 20,
            output_queue_packets: 20,
            num_vcs: 5,
            shards: ShardKind::default(),
            pipeline: default_pipeline(),
            max_retries: default_max_retries(),
            retransmit_backoff_ns: default_retransmit_backoff_ns(),
            ttl_hops: default_ttl_hops(),
            qtable_page_rows_threshold: default_qtable_page_rows_threshold(),
        }
    }
}

impl EngineConfig {
    /// The paper's configuration with a routing-algorithm specific number
    /// of virtual channels.
    pub fn paper(num_vcs: usize) -> Self {
        Self {
            num_vcs: num_vcs.max(1),
            ..Self::default()
        }
    }

    /// Refuse hardware values no run can make sense of: a link that moves
    /// no (or a non-finite number of) bytes, empty packets, buffers that
    /// can never hold the packet they must forward, and buffers deeper
    /// than a router's 16-bit counters (65,535 packets). The error names
    /// the field and the value. Zero latencies stay legal — they leave no
    /// lookahead window, and the engine then runs on a single shard.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.link_bytes_per_ns.is_finite() && self.link_bytes_per_ns > 0.0) {
            return Err(format!(
                "link_bytes_per_ns must be a finite positive number, got {}",
                self.link_bytes_per_ns
            ));
        }
        // A router counts credits and output-queue lengths in 16 bits.
        let router_counter = u16::MAX as usize;
        for (field, value, max) in [
            (
                "packet_bytes",
                self.packet_bytes as usize,
                u32::MAX as usize,
            ),
            ("vc_buffer_packets", self.vc_buffer_packets, router_counter),
            (
                "output_queue_packets",
                self.output_queue_packets,
                router_counter,
            ),
        ] {
            if value == 0 {
                return Err(format!("{field} must be at least 1, got 0"));
            }
            if value > max {
                return Err(format!("{field} must be at most {max}, got {value}"));
            }
        }
        Ok(())
    }

    /// Serialisation time of one packet over a link, in ns.
    #[inline]
    pub fn serialization_ns(&self) -> SimTime {
        ((self.packet_bytes as f64) / self.link_bytes_per_ns).ceil() as SimTime
    }

    /// Per-node injection bandwidth in bytes per ns (used to convert an
    /// offered load fraction into a packet inter-arrival interval).
    #[inline]
    pub fn injection_bytes_per_ns(&self) -> f64 {
        self.link_bytes_per_ns
    }

    /// Latency of a link of the given kind, in ns.
    #[inline]
    pub fn link_latency_ns(&self, kind: HopKind) -> SimTime {
        match kind {
            HopKind::Local => self.local_latency_ns,
            HopKind::Global => self.global_latency_ns,
        }
    }

    /// Time to traverse one router-to-router hop without contention:
    /// router pipeline + serialisation + link latency.
    #[inline]
    pub fn hop_ns(&self, kind: HopKind) -> SimTime {
        self.router_latency_ns + self.serialization_ns() + self.link_latency_ns(kind)
    }

    /// Time for the final ejection from the destination router to the node:
    /// router pipeline + serialisation + host link latency.
    #[inline]
    pub fn ejection_ns(&self) -> SimTime {
        self.router_latency_ns + self.serialization_ns() + self.host_latency_ns
    }

    /// Time for the initial injection from a node into its router.
    #[inline]
    pub fn injection_ns(&self) -> SimTime {
        self.serialization_ns() + self.host_latency_ns
    }

    /// The theoretical congestion-free delivery time along a route with the
    /// given hop kinds (source router to destination router), **excluding**
    /// the initial injection but **including** the final ejection.
    ///
    /// This is the quantity the paper uses to initialise Q-values:
    /// "Q-values are initialized to the theoretical packet delivery time
    /// without any congestion through a minimal routing path."
    pub fn theoretical_delivery_ns(&self, hops: &[HopKind]) -> SimTime {
        hops.iter().map(|k| self.hop_ns(*k)).sum::<SimTime>() + self.ejection_ns()
    }

    /// Theoretical congestion-free end-to-end latency (node to node) along
    /// a minimal route with the given hop kinds.
    pub fn theoretical_latency_ns(&self, hops: &[HopKind]) -> SimTime {
        self.injection_ns() + self.theoretical_delivery_ns(hops)
    }

    /// Inter-arrival interval (ns) between packets generated by one node at
    /// a given offered load in `(0, 1]`.
    pub fn interarrival_ns(&self, offered_load: f64) -> f64 {
        assert!(offered_load > 0.0, "offered load must be positive");
        (self.packet_bytes as f64) / (self.injection_bytes_per_ns() * offered_load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_serialization_is_32ns() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.serialization_ns(), 32);
    }

    #[test]
    fn link_latencies_keep_the_1_to_10_ratio() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.link_latency_ns(HopKind::Local), 30);
        assert_eq!(cfg.link_latency_ns(HopKind::Global), 300);
        assert_eq!(cfg.global_latency_ns, 10 * cfg.local_latency_ns);
    }

    #[test]
    fn theoretical_times_compose() {
        let cfg = EngineConfig::default();
        // A full minimal path: local + global + local.
        let hops = [HopKind::Local, HopKind::Global, HopKind::Local];
        let per_hop: SimTime = cfg.hop_ns(HopKind::Local) * 2 + cfg.hop_ns(HopKind::Global);
        assert_eq!(
            cfg.theoretical_delivery_ns(&hops),
            per_hop + cfg.ejection_ns()
        );
        assert_eq!(
            cfg.theoretical_latency_ns(&hops),
            cfg.injection_ns() + per_hop + cfg.ejection_ns()
        );
        // The intra-router-pair path (src router == dst router).
        assert_eq!(cfg.theoretical_delivery_ns(&[]), cfg.ejection_ns());
    }

    #[test]
    fn interarrival_scales_inversely_with_load() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.interarrival_ns(1.0), 32.0);
        assert_eq!(cfg.interarrival_ns(0.5), 64.0);
        assert!((cfg.interarrival_ns(0.8) - 40.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "offered load must be positive")]
    fn zero_load_panics() {
        EngineConfig::default().interarrival_ns(0.0);
    }

    #[test]
    fn paper_constructor_sets_vcs() {
        let cfg = EngineConfig::paper(3);
        assert_eq!(cfg.num_vcs, 3);
        assert_eq!(cfg.vc_buffer_packets, 20);
        assert_eq!(cfg.shards, ShardKind::Single);
        assert!(cfg.pipeline, "pipelined execution is the default");
    }

    #[test]
    fn pipeline_defaults_to_true_for_pre_pipeline_configs() {
        // A serialized EngineConfig from before the field existed must
        // deserialize with pipelining on (the result-identical default).
        let legacy = r#"{"packet_bytes":128,"link_bytes_per_ns":4.0,
            "local_latency_ns":30,"global_latency_ns":300,"host_latency_ns":10,
            "router_latency_ns":100,"vc_buffer_packets":20,
            "output_queue_packets":20,"num_vcs":5}"#;
        let parsed: EngineConfig = serde_json::from_str(legacy).unwrap();
        assert!(parsed.pipeline);
        assert_eq!(parsed, EngineConfig::default());
    }

    #[test]
    fn resilience_fields_default_for_pre_fault_configs() {
        // Configs serialized before the fault/retransmit fields existed
        // must parse with the documented defaults.
        let legacy = r#"{"packet_bytes":128,"link_bytes_per_ns":4.0,
            "local_latency_ns":30,"global_latency_ns":300,"host_latency_ns":10,
            "router_latency_ns":100,"vc_buffer_packets":20,
            "output_queue_packets":20,"num_vcs":5}"#;
        let parsed: EngineConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed.max_retries, 3);
        assert_eq!(parsed.retransmit_backoff_ns, 2_000);
        assert_eq!(parsed.ttl_hops, 64);
        assert_eq!(parsed.qtable_page_rows_threshold, 4_096);
    }

    #[test]
    fn shard_kind_resolution_clamps_and_gates() {
        // Fixed counts clamp to [1, groups].
        assert_eq!(ShardKind::Fixed(4).resolve(9, 300), 4);
        assert_eq!(ShardKind::Fixed(0).resolve(9, 300), 1);
        assert_eq!(ShardKind::Fixed(100).resolve(9, 300), 9);
        assert_eq!(ShardKind::Single.resolve(9, 300), 1);
        // Auto never exceeds the group count.
        assert!(ShardKind::Auto.resolve(2, 300) <= 2);
        assert!(ShardKind::Auto.resolve(64, 300) >= 1);
        // Zero global latency leaves no lookahead: sequential fallback.
        assert_eq!(ShardKind::Fixed(4).resolve(9, 0), 1);
    }
}
