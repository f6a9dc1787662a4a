//! The measurement observer: applies the warmup/measurement-window
//! methodology of the paper and feeds the metric primitives.

use dragonfly_engine::observer::{ShardObserver, SimObserver};
use dragonfly_engine::packet::Packet;
use dragonfly_engine::time::SimTime;
use dragonfly_metrics::histogram::Histogram;
use dragonfly_metrics::latency::LatencyStats;
use dragonfly_metrics::throughput::ThroughputMeter;
use dragonfly_metrics::timeseries::TimeSeries;
use dragonfly_topology::ids::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Collects latency, hop and throughput statistics over a measurement
/// window, plus an optional whole-run time series.
///
/// The collector is a [`ShardObserver`]: a sharded engine clones it per
/// shard and merges the clones afterwards. Every accumulator is an
/// integer sum, count or sample multiset, so the merged result is
/// bit-for-bit identical to a single-shard run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsCollector {
    /// Packets delivered before this time are ignored (warmup).
    pub window_start_ns: SimTime,
    /// Packets delivered at or after this time are ignored.
    pub window_end_ns: SimTime,
    /// Latency samples within the window.
    pub latency: LatencyStats,
    /// Hop-count histogram within the window.
    pub hops: Histogram,
    /// Delivered bytes within the window.
    pub throughput: ThroughputMeter,
    /// Messages generated within the window.
    pub generated_in_window: u64,
    /// Messages generated in total.
    pub generated_total: u64,
    /// Packets delivered in total (any time).
    pub delivered_total: u64,
    /// Optional binned time series over the whole run.
    pub series: Option<TimeSeries>,
    /// Closed-loop: ranks whose task program ran to completion.
    pub ranks_finished: u64,
    /// Closed-loop: when the last rank finished (max across ranks).
    pub job_end_max_ns: SimTime,
    /// Closed-loop: when the first rank finished (`u64::MAX` when none).
    pub job_end_min_ns: SimTime,
    /// Closed-loop: completion time of each phase slot (elementwise max
    /// across ranks; index = phase slot).
    pub phase_end_ns: Vec<SimTime>,
    /// Closed-loop: total ns ranks spent blocked in barrier receives.
    pub barrier_wait_ns: u64,
    /// Packets dropped (fault-killed resources, TTL, exhausted retries).
    pub dropped_total: u64,
    /// NIC retransmissions triggered by drop notifications.
    pub retransmits_total: u64,
    /// Messages abandoned after the retry budget ran out.
    pub gave_up_total: u64,
    /// Distinct `(src, dst)` node pairs with at least one abandoned
    /// message — the report's `unreachable_pairs`. Merging is set union,
    /// so the count is shard-order independent.
    pub gave_up_pairs: BTreeSet<(u32, u32)>,
}

impl MetricsCollector {
    /// Collect over `[window_start_ns, window_end_ns)`.
    pub fn new(window_start_ns: SimTime, window_end_ns: SimTime) -> Self {
        Self::with_latency(window_start_ns, window_end_ns, LatencyStats::new())
    }

    /// Collect over `[window_start_ns, window_end_ns)` with the log-binned
    /// streaming latency sketch instead of the exact sample store: memory
    /// stays a few KB no matter how many packets are delivered, quantiles
    /// are within one sketch bucket (≲ 1.6% relative) of exact, and shard
    /// merges are integer bin additions — bit-for-bit order independent.
    /// The mode of every shard clone must match, which `ShardObserver`
    /// cloning guarantees.
    pub fn streaming(window_start_ns: SimTime, window_end_ns: SimTime) -> Self {
        Self::with_latency(window_start_ns, window_end_ns, LatencyStats::streaming())
    }

    fn with_latency(
        window_start_ns: SimTime,
        window_end_ns: SimTime,
        latency: LatencyStats,
    ) -> Self {
        Self {
            window_start_ns,
            window_end_ns,
            latency,
            hops: Histogram::new(16),
            throughput: ThroughputMeter::new(),
            generated_in_window: 0,
            generated_total: 0,
            delivered_total: 0,
            series: None,
            ranks_finished: 0,
            job_end_max_ns: 0,
            job_end_min_ns: SimTime::MAX,
            phase_end_ns: Vec::new(),
            barrier_wait_ns: 0,
            dropped_total: 0,
            retransmits_total: 0,
            gave_up_total: 0,
            gave_up_pairs: BTreeSet::new(),
        }
    }

    /// Also record a time series with the given bin width.
    pub fn with_series(mut self, bin_width_ns: u64) -> Self {
        self.series = Some(TimeSeries::new(bin_width_ns));
        self
    }

    /// Length of the measurement window in ns.
    pub fn window_ns(&self) -> SimTime {
        self.window_end_ns.saturating_sub(self.window_start_ns)
    }

    /// Check that this collector, read from a snapshot, is one the spec
    /// builds: `fresh` is the collector `Simulation::start` built from it.
    /// Merging a sketch into exact samples panics and another window
    /// reports other numbers, so a damaged collector is refused, naming
    /// the field and both values.
    pub(crate) fn check_fits(&self, fresh: &Self) -> Result<(), String> {
        let fields = |c: &Self| {
            let mode = if c.latency.is_streaming() {
                "Streaming"
            } else {
                "Exact"
            };
            let series = match &c.series {
                Some(s) => format!("{} ns bins", s.bin_width_ns()),
                None => "none".to_string(),
            };
            [
                ("collector.latency", mode.to_string()),
                ("collector.window_start_ns", c.window_start_ns.to_string()),
                ("collector.window_end_ns", c.window_end_ns.to_string()),
                ("collector.series", series),
            ]
        };
        for ((field, ours), (_, spec)) in fields(self).into_iter().zip(fields(fresh)) {
            if ours != spec {
                return Err(format!(
                    "`{field}` is {ours} in the snapshot but {spec} under the spec"
                ));
            }
        }
        Ok(())
    }

    fn in_window(&self, t: SimTime) -> bool {
        t >= self.window_start_ns && t < self.window_end_ns
    }
}

impl ShardObserver for MetricsCollector {
    fn absorb(&mut self, other: &Self) {
        debug_assert_eq!(self.window_start_ns, other.window_start_ns);
        debug_assert_eq!(self.window_end_ns, other.window_end_ns);
        self.latency.merge(&other.latency);
        self.hops.merge(&other.hops);
        self.throughput.merge(&other.throughput);
        self.generated_in_window += other.generated_in_window;
        self.generated_total += other.generated_total;
        self.delivered_total += other.delivered_total;
        match (self.series.as_mut(), &other.series) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.series = Some(theirs.clone()),
            _ => {}
        }
        // Max / min / elementwise-max / sum: all order-independent, so
        // merged closed-loop metrics match a single-shard run exactly.
        self.ranks_finished += other.ranks_finished;
        self.job_end_max_ns = self.job_end_max_ns.max(other.job_end_max_ns);
        self.job_end_min_ns = self.job_end_min_ns.min(other.job_end_min_ns);
        if self.phase_end_ns.len() < other.phase_end_ns.len() {
            self.phase_end_ns.resize(other.phase_end_ns.len(), 0);
        }
        for (slot, end) in other.phase_end_ns.iter().enumerate() {
            self.phase_end_ns[slot] = self.phase_end_ns[slot].max(*end);
        }
        self.barrier_wait_ns += other.barrier_wait_ns;
        self.dropped_total += other.dropped_total;
        self.retransmits_total += other.retransmits_total;
        self.gave_up_total += other.gave_up_total;
        self.gave_up_pairs.extend(&other.gave_up_pairs);
    }

    /// Heap footprint of the collected metrics in bytes: latency storage
    /// (sketch bins in streaming mode; in exact mode 4 B per sample in the
    /// window plus at most one 16 KiB chunk being filled), the hop
    /// histogram and the optional time series. In streaming mode the total
    /// is bounded by sketch size and simulated time — never by the number
    /// of delivered packets. Exact samples frozen into chunks are shared
    /// between a collector and its clones (a snapshot's, the report's
    /// merged one); each owner counts them, so two owners' figures do not
    /// add up to the heap. A side channel outside the bit-for-bit
    /// contract, like `Engine::memory_bytes`.
    fn memory_bytes(&self) -> usize {
        self.latency.memory_bytes()
            + self.hops.memory_bytes()
            + self.series.as_ref().map_or(0, |s| s.memory_bytes())
    }
}

impl SimObserver for MetricsCollector {
    fn packet_generated(&mut self, _packet: &Packet, now: SimTime) {
        self.generated_total += 1;
        if self.in_window(now) {
            self.generated_in_window += 1;
        }
    }

    fn packet_delivered(&mut self, packet: &Packet, size_bytes: u32, now: SimTime) {
        self.delivered_total += 1;
        let latency = packet.latency_ns(now);
        if let Some(series) = &mut self.series {
            series.record(now, latency, size_bytes);
        }
        if self.in_window(now) {
            self.latency.record(latency);
            self.hops.record(packet.hops as usize);
            self.throughput.record(size_bytes);
        }
    }

    fn packet_dropped(&mut self, _packet: &Packet, _now: SimTime) {
        self.dropped_total += 1;
    }

    fn packet_retransmitted(&mut self, _packet: &Packet, _now: SimTime) {
        self.retransmits_total += 1;
    }

    fn message_gave_up(&mut self, src: NodeId, dst: NodeId, _now: SimTime) {
        self.gave_up_total += 1;
        self.gave_up_pairs.insert((src.0, dst.0));
    }

    fn task_phase_completed(&mut self, _node: NodeId, phase: u32, now: SimTime) {
        let slot = phase as usize;
        if self.phase_end_ns.len() <= slot {
            self.phase_end_ns.resize(slot + 1, 0);
        }
        self.phase_end_ns[slot] = self.phase_end_ns[slot].max(now);
    }

    fn task_rank_finished(&mut self, _node: NodeId, now: SimTime) {
        self.ranks_finished += 1;
        self.job_end_max_ns = self.job_end_max_ns.max(now);
        self.job_end_min_ns = self.job_end_min_ns.min(now);
    }

    fn task_blocked_wait(&mut self, _node: NodeId, waited_ns: u64, barrier: bool) {
        if barrier {
            self.barrier_wait_ns += waited_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::config::DragonflyConfig;
    use dragonfly_topology::ids::NodeId;
    use dragonfly_topology::Dragonfly;

    fn packet(created: SimTime, hops: u8) -> Packet {
        let topo = Dragonfly::new(DragonflyConfig::tiny());
        let mut p = Packet::new(&topo, 0, NodeId(0), NodeId(1), created);
        p.hops = hops;
        p
    }

    #[test]
    fn warmup_deliveries_are_excluded_from_the_window() {
        let mut c = MetricsCollector::new(1_000, 2_000);
        c.packet_delivered(&packet(0, 3), 128, 500); // warmup
        c.packet_delivered(&packet(900, 3), 128, 1_500); // in window
        c.packet_delivered(&packet(1_900, 3), 128, 2_500); // after window
        assert_eq!(c.delivered_total, 3);
        assert_eq!(c.latency.count(), 1);
        assert_eq!(c.latency.mean_ns(), 600.0);
        assert_eq!(c.throughput.packets(), 1);
        assert_eq!(c.hops.count(), 1);
    }

    #[test]
    fn generation_counting_respects_the_window() {
        let mut c = MetricsCollector::new(100, 200);
        c.packet_generated(&packet(0, 0), 0);
        c.packet_generated(&packet(150, 0), 150);
        c.packet_generated(&packet(250, 0), 250);
        assert_eq!(c.generated_total, 3);
        assert_eq!(c.generated_in_window, 1);
    }

    #[test]
    fn closed_loop_accumulators_merge_order_independently() {
        let mut a = MetricsCollector::new(0, 1_000);
        let mut b = MetricsCollector::new(0, 1_000);
        a.task_phase_completed(NodeId(0), 0, 100);
        a.task_rank_finished(NodeId(0), 400);
        a.task_blocked_wait(NodeId(0), 50, true);
        a.task_blocked_wait(NodeId(0), 99, false); // non-barrier wait
        b.task_phase_completed(NodeId(1), 0, 250);
        b.task_phase_completed(NodeId(1), 1, 300);
        b.task_rank_finished(NodeId(1), 350);
        b.task_blocked_wait(NodeId(1), 25, true);
        a.absorb(&b);
        assert_eq!(a.ranks_finished, 2);
        assert_eq!(a.job_end_max_ns, 400);
        assert_eq!(a.job_end_min_ns, 350);
        assert_eq!(a.phase_end_ns, vec![250, 300]);
        assert_eq!(a.barrier_wait_ns, 75);
    }

    #[test]
    fn resilience_accounting_merges_order_independently() {
        let mut a = MetricsCollector::new(0, 1_000);
        let mut b = MetricsCollector::new(0, 1_000);
        a.packet_dropped(&packet(0, 1), 10);
        a.packet_retransmitted(&packet(0, 1), 20);
        a.message_gave_up(NodeId(1), NodeId(2), 30);
        b.packet_dropped(&packet(0, 1), 15);
        b.message_gave_up(NodeId(1), NodeId(2), 35); // same pair, other shard
        b.message_gave_up(NodeId(3), NodeId(4), 40);
        a.absorb(&b);
        assert_eq!(a.dropped_total, 2);
        assert_eq!(a.retransmits_total, 1);
        assert_eq!(a.gave_up_total, 3);
        assert_eq!(a.gave_up_pairs.len(), 2, "pair set merges by union");
    }

    #[test]
    fn streaming_collector_merges_shards_bit_for_bit() {
        // Split one delivery stream across three "shards" and absorb in an
        // arbitrary order; the streaming sketch must equal the
        // unpartitioned collector exactly (integer bin addition).
        let mut whole = MetricsCollector::streaming(0, 1_000_000);
        let mut shards = vec![
            MetricsCollector::streaming(0, 1_000_000),
            MetricsCollector::streaming(0, 1_000_000),
            MetricsCollector::streaming(0, 1_000_000),
        ];
        let mut x = 0x2545F4914F6CDD1Du64;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let created = x % 900_000;
            let now = created + x % 90_000;
            let p = packet(created, (x % 6) as u8);
            whole.packet_delivered(&p, 128, now);
            shards[(i % 3) as usize].packet_delivered(&p, 128, now);
        }
        let mut merged = shards.pop().unwrap();
        for s in shards {
            merged.absorb(&s);
        }
        assert_eq!(
            serde_json::to_string(&merged.latency).unwrap(),
            serde_json::to_string(&whole.latency).unwrap(),
            "streaming shard merge must be bit-for-bit"
        );
        assert_eq!(merged.delivered_total, whole.delivered_total);
        // Bounded memory: far below what 5k u64 samples would need.
        assert!(merged.memory_bytes() < 64 * 1024);
    }

    #[test]
    fn time_series_covers_the_whole_run() {
        let mut c = MetricsCollector::new(1_000, 2_000).with_series(500);
        c.packet_delivered(&packet(0, 2), 128, 400);
        c.packet_delivered(&packet(0, 2), 128, 1_200);
        c.packet_delivered(&packet(0, 2), 128, 2_600);
        let s = c.series.as_ref().unwrap();
        assert_eq!(s.bin(0).packets, 1);
        assert_eq!(s.bin(2).packets, 1);
        assert_eq!(s.bin(5).packets, 1);
        // Window stats still only include the middle delivery.
        assert_eq!(c.latency.count(), 1);
    }
}
