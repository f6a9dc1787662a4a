//! Packet-latency statistics.
//!
//! The paper reports the mean, the quartiles (box plots of Figures 6 and 9)
//! and the 95th/99th percentiles. [`LatencyStats`] offers two accumulation
//! modes behind one API:
//!
//! * **Exact** (the default): every sample is retained in nanoseconds, and
//!   the first quantile query sorts them in place (a later `record` or
//!   `merge` marks them unsorted again). Memory is the samples and nothing
//!   else, one `u64` per delivered packet — fine for the ~1k-node smoke
//!   runs and required by the mode matrices. The report queries a merged
//!   clone of the shards' collectors, never a live one, so a snapshot
//!   keeps the samples in delivery order.
//! * **Streaming** ([`LatencyStats::streaming`]): samples land in a
//!   log-binned HDR-style sketch with [`MANTISSA_BITS`] mantissa bits per
//!   octave (64 sub-buckets, ≤ 1/64 ≈ 1.6 % relative bucket width), fixed
//!   worst-case size (< 4k `u64` counters for the whole `u64` range). The
//!   mean stays exact (integer sum), min/max are tracked exactly, and
//!   quantiles are answered at bucket granularity. Because every
//!   accumulator is an integer counter, [`LatencyStats::merge`] is plain
//!   elementwise addition — order-independent and therefore **bit-for-bit
//!   identical** for any sharding of the sample stream.

use serde::{Deserialize, Serialize};

/// Mantissa bits per octave of the streaming sketch: 2^6 = 64 sub-buckets,
/// bounding the relative bucket width at 1/64.
pub const MANTISSA_BITS: u32 = 6;

const LINEAR_LIMIT: u64 = 1 << MANTISSA_BITS;

/// Sketch bucket index of a sample value. Values below [`LINEAR_LIMIT`]
/// map to themselves (exact); above it, each octave is split into
/// 2^[`MANTISSA_BITS`] equal-width sub-buckets.
fn bucket_of(value: u64) -> usize {
    if value < LINEAR_LIMIT {
        return value as usize;
    }
    let high = 63 - value.leading_zeros(); // >= MANTISSA_BITS
    let block = (high - MANTISSA_BITS + 1) as usize;
    let mantissa = (value >> (high - MANTISSA_BITS)) as usize - LINEAR_LIMIT as usize;
    block * LINEAR_LIMIT as usize + mantissa
}

/// Lower bound of a sketch bucket (the deterministic representative every
/// quantile query answers with).
fn bucket_lower_bound(index: usize) -> u64 {
    let m = LINEAR_LIMIT as usize;
    if index < 2 * m {
        // Linear region plus the first octave, where buckets are exact.
        return index as u64;
    }
    let block = index / m;
    let pos = (index % m) as u64;
    (LINEAR_LIMIT + pos) << (block - 1)
}

/// Width of the sketch bucket containing `value` — the worst-case error of
/// a streaming quantile answer for sample sets containing `value`.
pub fn bucket_width_ns(value: u64) -> u64 {
    if value < 2 * LINEAR_LIMIT {
        return 1;
    }
    let high = 63 - value.leading_zeros();
    1u64 << (high - MANTISSA_BITS)
}

/// A collection of latency samples (nanoseconds).
///
/// Serialized exact-mode values from earlier layouts (plain
/// `samples` + `sum`) deserialize unchanged: every streaming-mode field
/// defaults to the exact-mode value.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    samples: Vec<u64>,
    /// Exact mode: `samples` is in ascending order.
    #[serde(skip)]
    sorted: bool,
    sum: u128,
    /// Streaming mode: samples are folded into `bins` and dropped.
    #[serde(default)]
    streaming: bool,
    /// Sketch counters, dense up to the highest touched bucket.
    #[serde(default)]
    bins: Vec<u64>,
    /// Sample count (streaming mode only; exact mode uses `samples.len()`).
    #[serde(default)]
    count: u64,
    /// Exact minimum sample (streaming mode only).
    #[serde(default)]
    min: u64,
    /// Exact maximum sample (streaming mode only).
    #[serde(default)]
    max: u64,
}

impl LatencyStats {
    /// An empty collection in exact (sample-retaining) mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty collection in streaming (log-binned sketch) mode.
    pub fn streaming() -> Self {
        Self {
            streaming: true,
            ..Self::default()
        }
    }

    /// Whether this collection is a streaming sketch.
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Record one latency sample in nanoseconds.
    pub fn record(&mut self, latency_ns: u64) {
        self.sum += latency_ns as u128;
        if self.streaming {
            let idx = bucket_of(latency_ns);
            if idx >= self.bins.len() {
                self.bins.resize(idx + 1, 0);
            }
            self.bins[idx] += 1;
            if self.count == 0 {
                self.min = latency_ns;
                self.max = latency_ns;
            } else {
                self.min = self.min.min(latency_ns);
                self.max = self.max.max(latency_ns);
            }
            self.count += 1;
        } else {
            self.samples.push(latency_ns);
            self.sorted = false;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        if self.streaming {
            self.count as usize
        } else {
            self.samples.len()
        }
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean latency in nanoseconds (0 when empty). Exact in both modes
    /// (the sum is an integer accumulator).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Mean latency in microseconds (the paper's unit).
    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1_000.0
    }

    /// The exact-mode samples in ascending order, sorted in place.
    fn sorted(&mut self) -> &[u64] {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        &self.samples
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using nearest-rank interpolation;
    /// 0 when empty. Exact mode answers with the ranked sample; streaming
    /// mode answers with the lower bound of the bucket holding that rank
    /// (clamped into `[min, max]`), so the answer is within one bucket
    /// width of the exact quantile.
    pub fn quantile_ns(&mut self, q: f64) -> u64 {
        let q = q.clamp(0.0, 1.0);
        if self.streaming {
            if self.count == 0 {
                return 0;
            }
            let rank = ((self.count - 1) as f64 * q).round() as u64;
            let mut seen = 0u64;
            for (idx, &c) in self.bins.iter().enumerate() {
                seen += c;
                if seen > rank {
                    return bucket_lower_bound(idx).clamp(self.min, self.max);
                }
            }
            return self.max;
        }
        let sorted = self.sorted();
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }

    /// Median (50th percentile) in nanoseconds.
    pub fn median_ns(&mut self) -> u64 {
        self.quantile_ns(0.5)
    }

    /// First quartile in nanoseconds.
    pub fn q1_ns(&mut self) -> u64 {
        self.quantile_ns(0.25)
    }

    /// Third quartile in nanoseconds.
    pub fn q3_ns(&mut self) -> u64 {
        self.quantile_ns(0.75)
    }

    /// 95th percentile in nanoseconds.
    pub fn p95_ns(&mut self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th percentile in nanoseconds.
    pub fn p99_ns(&mut self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Maximum sample (0 when empty). Exact in both modes.
    pub fn max_ns(&mut self) -> u64 {
        if self.streaming {
            return self.max;
        }
        self.sorted().last().copied().unwrap_or(0)
    }

    /// Minimum sample (0 when empty). Exact in both modes.
    pub fn min_ns(&mut self) -> u64 {
        if self.streaming {
            return self.min;
        }
        self.sorted().first().copied().unwrap_or(0)
    }

    /// Fraction of samples strictly below `threshold_ns`
    /// (e.g. the paper's "80.99 % of packets below 2 µs").
    ///
    /// Streaming mode answers at bucket granularity: samples in the bucket
    /// containing `threshold_ns` count as not-below. When the threshold is
    /// a bucket boundary (powers of two times small integers — 2 µs is
    /// one), the answer is exact.
    pub fn fraction_below(&mut self, threshold_ns: u64) -> f64 {
        if self.streaming {
            if self.count == 0 {
                return 0.0;
            }
            let cut = bucket_of(threshold_ns);
            let below: u64 = self.bins.iter().take(cut).sum();
            return below as f64 / self.count as f64;
        }
        let sorted = self.sorted();
        if sorted.is_empty() {
            return 0.0;
        }
        let below = sorted.partition_point(|&x| x < threshold_ns);
        below as f64 / sorted.len() as f64
    }

    /// Merge another collection into this one.
    ///
    /// * streaming ← streaming: elementwise integer bin addition plus
    ///   integer sum/count and min/max folds — order-independent, so any
    ///   shard partition of a delivery stream merges to the bit-identical
    ///   unpartitioned sketch.
    /// * exact ← exact: the other side's samples are appended, into room
    ///   reserved for exactly them, and the next quantile query sorts the
    ///   whole set once.
    /// * streaming ← exact: the other side's samples are folded into the
    ///   sketch. The reverse (exact ← streaming) panics — a sketch cannot
    ///   reconstruct its samples. Sharded runs never mix modes: every
    ///   shard observer is a clone of one collector.
    pub fn merge(&mut self, other: &LatencyStats) {
        if self.streaming {
            if other.streaming {
                if other.bins.len() > self.bins.len() {
                    self.bins.resize(other.bins.len(), 0);
                }
                for (bin, theirs) in self.bins.iter_mut().zip(other.bins.iter()) {
                    *bin += theirs;
                }
                self.sum += other.sum;
                if other.count > 0 {
                    if self.count == 0 {
                        self.min = other.min;
                        self.max = other.max;
                    } else {
                        self.min = self.min.min(other.min);
                        self.max = self.max.max(other.max);
                    }
                }
                self.count += other.count;
            } else {
                for &s in &other.samples {
                    self.record(s);
                }
            }
            return;
        }
        assert!(
            !other.streaming,
            "cannot merge a streaming sketch into exact-mode LatencyStats"
        );
        self.samples.reserve_exact(other.samples.len());
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
        self.sum += other.sum;
    }

    /// Heap footprint of this collection in bytes (the `memory_bytes`
    /// rollup unit): the retained samples in exact mode, the fixed-size bin
    /// array in streaming mode.
    pub fn memory_bytes(&self) -> usize {
        (self.samples.capacity() + self.bins.capacity()) * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(values: &[u64]) -> LatencyStats {
        let mut s = LatencyStats::new();
        for v in values {
            s.record(*v);
        }
        s
    }

    fn sketch(values: &[u64]) -> LatencyStats {
        let mut s = LatencyStats::streaming();
        for v in values {
            s.record(*v);
        }
        s
    }

    #[test]
    fn empty_stats_report_zeroes() {
        let mut s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean_ns(), 0.0);
        assert_eq!(s.p99_ns(), 0);
        assert_eq!(s.fraction_below(100), 0.0);
    }

    #[test]
    fn mean_and_units() {
        let s = stats(&[1_000, 2_000, 3_000]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean_ns(), 2_000.0);
        assert_eq!(s.mean_us(), 2.0);
    }

    #[test]
    fn quantiles_on_a_known_distribution() {
        let values: Vec<u64> = (1..=100).collect();
        let mut s = stats(&values);
        assert_eq!(s.min_ns(), 1);
        assert_eq!(s.max_ns(), 100);
        assert_eq!(s.median_ns(), 51);
        assert_eq!(s.q1_ns(), 26);
        assert_eq!(s.q3_ns(), 75);
        assert_eq!(s.p95_ns(), 95);
        assert_eq!(s.p99_ns(), 99);
    }

    #[test]
    fn fraction_below_counts_strictly_less() {
        let mut s = stats(&[1, 2, 2, 3, 10]);
        assert_eq!(s.fraction_below(2), 0.2);
        assert_eq!(s.fraction_below(3), 0.6);
        assert_eq!(s.fraction_below(100), 1.0);
    }

    #[test]
    fn recording_after_a_quantile_query_invalidates_the_cache() {
        let mut s = stats(&[10, 20, 30]);
        assert_eq!(s.max_ns(), 30);
        s.record(100);
        assert_eq!(s.max_ns(), 100);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn merge_combines_sample_sets() {
        let mut a = stats(&[1, 2, 3]);
        let b = stats(&[10, 20]);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.mean_ns(), 7.2);
        assert_eq!(a.max_ns(), 20);
    }

    #[test]
    fn exact_merge_after_quantile_queries_stays_sorted() {
        // Both sides are sorted in place; the merged set must be sorted
        // again on the next query, not read as a stale run.
        let mut a = stats(&[5, 1, 9]);
        let mut b = stats(&[4, 8, 2]);
        assert_eq!(a.median_ns(), 5);
        assert_eq!(b.median_ns(), 4);
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.min_ns(), 1);
        assert_eq!(a.max_ns(), 9);
        assert_eq!(a.median_ns(), 5);
        // And merging un-queried (cold-cache) sides works too.
        let mut c = stats(&[100, 50]);
        c.merge(&stats(&[75]));
        assert_eq!(c.median_ns(), 75);
    }

    #[test]
    fn an_exact_query_sorts_the_samples_in_place() {
        let values: Vec<u64> = (0..1_000u64).map(|i| i * 7_919 % 1_009).collect();
        let mut s = stats(&values);
        let bytes = s.memory_bytes();
        let mut oracle = values.clone();
        oracle.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let rank = ((oracle.len() - 1) as f64 * q).round() as usize;
            assert_eq!(s.quantile_ns(q), oracle[rank], "q={q}");
        }
        assert_eq!(s.memory_bytes(), bytes, "no sorted copy");
        assert_eq!(s.samples, oracle);
    }

    #[test]
    fn linear_buckets_are_exact() {
        for v in 0..128u64 {
            assert_eq!(bucket_of(v), v as usize, "value {v}");
            assert_eq!(bucket_lower_bound(v as usize), v, "value {v}");
            assert_eq!(bucket_width_ns(v), 1, "value {v}");
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        let mut probe = vec![
            0u64,
            1,
            63,
            64,
            127,
            128,
            129,
            1_999,
            2_000,
            2_001,
            u64::MAX,
        ];
        let mut x = 1u64;
        for _ in 0..500 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            probe.push(x);
            probe.push(x >> (x % 48));
        }
        for &v in &probe {
            let idx = bucket_of(v);
            let lo = bucket_lower_bound(idx);
            let width = bucket_width_ns(v);
            assert!(lo <= v, "lower bound {lo} above value {v}");
            assert!(
                v - lo < width,
                "value {v} outside bucket [{lo}, {lo}+{width})"
            );
            // Relative width bound: 1/64 above the exact region.
            if v >= 128 {
                assert!(width as f64 / lo as f64 <= 1.0 / 64.0 + 1e-12, "value {v}");
            }
        }
    }

    #[test]
    fn streaming_mean_min_max_are_exact() {
        let values = [3u64, 77, 12_345, 999_999_999, 1];
        let mut s = sketch(&values);
        let mut e = stats(&values);
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean_ns(), e.mean_ns());
        assert_eq!(s.min_ns(), e.min_ns());
        assert_eq!(s.max_ns(), e.max_ns());
    }

    #[test]
    fn streaming_quantiles_within_one_bucket_of_exact() {
        // Deterministic xorshift sample sets across several magnitudes.
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for scale in [100u64, 10_000, 5_000_000] {
            let values: Vec<u64> = (0..1_000).map(|_| next() % scale + 1).collect();
            let mut e = stats(&values);
            let mut s = sketch(&values);
            for q in [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
                let exact = e.quantile_ns(q);
                let approx = s.quantile_ns(q);
                let width = bucket_width_ns(exact);
                assert!(
                    approx <= exact && exact - approx <= width,
                    "q={q} scale={scale}: sketch {approx} vs exact {exact} (width {width})"
                );
            }
        }
    }

    #[test]
    fn streaming_fraction_below_is_exact_at_bucket_boundaries() {
        let values: Vec<u64> = (1..=4_000).collect();
        let mut e = stats(&values);
        let mut s = sketch(&values);
        // 2_000 ns is a bucket lower bound in the 6-mantissa-bit sketch.
        assert_eq!(bucket_lower_bound(bucket_of(2_000)), 2_000);
        assert_eq!(s.fraction_below(2_000), e.fraction_below(2_000));
    }

    #[test]
    fn streaming_merge_equals_unpartitioned_sketch_bit_for_bit() {
        let values: Vec<u64> = (0..500u64).map(|i| i * i % 70_000 + 1).collect();
        let whole = sketch(&values);
        // Partition round-robin into three shards, merge in shard order and
        // in reverse order: all three encodings must be byte-identical.
        let mut shards = vec![LatencyStats::streaming(); 3];
        for (i, &v) in values.iter().enumerate() {
            shards[i % 3].record(v);
        }
        let mut fwd = LatencyStats::streaming();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = LatencyStats::streaming();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        let enc = |s: &LatencyStats| serde_json::to_string(s).unwrap();
        assert_eq!(enc(&fwd), enc(&whole));
        assert_eq!(enc(&rev), enc(&whole));
    }

    #[test]
    fn streaming_memory_is_bounded() {
        let mut s = LatencyStats::streaming();
        for i in 0..1_000_000u64 {
            s.record(i % 10_000_000 + 1);
        }
        assert_eq!(s.count(), 1_000_000);
        // Far below one u64 per sample: the sketch is a few KB.
        assert!(s.memory_bytes() < 64 * 1024, "{}", s.memory_bytes());
    }

    #[test]
    fn legacy_exact_serialization_still_deserializes() {
        let json = r#"{"samples":[5,1,9],"sum":15}"#;
        let mut s: LatencyStats = serde_json::from_str(json).unwrap();
        assert!(!s.is_streaming());
        assert_eq!(s.count(), 3);
        assert_eq!(s.median_ns(), 5);
    }
}
