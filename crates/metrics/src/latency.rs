//! Packet-latency statistics.
//!
//! The paper reports the mean, the quartiles (box plots of Figures 6 and 9)
//! and the 95th/99th percentiles. [`LatencyStats`] offers two accumulation
//! modes behind one API:
//!
//! * **Exact** (the default): every sample is retained, 4 B each, in
//!   delivery order. A sample is a `u32` of nanoseconds in an append-only
//!   store of `CHUNK`-sample (16 KiB) chunks: full chunks are frozen and
//!   shared by reference count, and only the chunk being filled is owned,
//!   so a push touches no atomic. A sample of `u32::MAX` ns or more is
//!   stored as the marker `u32::MAX` and its value in a side list, so the
//!   order stays exact at any width. A clone copies the chunk pointers and
//!   at most the owned chunk; an exact merge appends the other side's
//!   chunks the same way (so partial chunks may sit mid-list). Queries
//!   read the chunks in place and leave them as they are: a quantile is an
//!   exact most-significant-digit radix selection that answers with the
//!   ranked sample a sort would give. Its first digit is the sample's
//!   log-linear bucket at 10 mantissa bits (the sketch's bucketing, finer),
//!   so one pass over the samples answers below 2,048 ns; 11-bit digits
//!   follow, at most three passes in all below 2^32 ns. The minimum, the
//!   maximum and a fraction below a threshold take one pass each.
//! * **Streaming** ([`LatencyStats::streaming`]): samples land in a
//!   log-binned HDR-style sketch with [`MANTISSA_BITS`] mantissa bits per
//!   octave (64 sub-buckets, ≤ 1/64 ≈ 1.6 % relative bucket width), fixed
//!   worst-case size (< 4k `u64` counters for the whole `u64` range). The
//!   mean stays exact (integer sum), min/max are tracked exactly, and
//!   quantiles are answered at bucket granularity. Because every
//!   accumulator is an integer counter, [`LatencyStats::merge`] is plain
//!   elementwise addition — order-independent and therefore **bit-for-bit
//!   identical** for any sharding of the sample stream.

use serde::{Deserialize, Emitter, Error, Serialize, Source};
use std::sync::Arc;

/// Mantissa bits per octave of the streaming sketch: 2^6 = 64 sub-buckets,
/// bounding the relative bucket width at 1/64.
pub const MANTISSA_BITS: u32 = 6;

/// Samples per exact-mode chunk: 4,096 `u32`s, 16 KiB. Every shard fills a
/// chunk of its own, and a report or snapshot copies each shard's, so the
/// chunk is per-shard slack.
const CHUNK: usize = 1 << 12;

/// Bits of one digit of the exact-mode radix selection.
const RADIX_BITS: u32 = 11;

/// Mantissa bits of the first digit of an exact-mode selection: the
/// sketch's log-linear buckets, each value below 2^11 ns in a bucket of
/// its own and each one above in 1/1024 of its octave.
const SELECT_BITS: u32 = 10;

/// First-digit buckets of a `u32` sample.
const SELECT_BUCKETS: usize = bucket_of(u32::MAX as u64, SELECT_BITS) + 1;

/// What an exact-mode chunk holds in place of a sample too wide for a
/// `u32`; the sample itself is in [`Samples::wide`].
const WIDE: u32 = u32::MAX;

/// Log-linear bucket index of a sample value at `mantissa_bits` (the
/// sketch's is [`MANTISSA_BITS`]). Values below 2^(`mantissa_bits` + 1) map
/// to themselves (exact); above, each octave is split into
/// 2^`mantissa_bits` equal-width sub-buckets. Branch-free: below the
/// linear limit the octave term is 0 and the shift is 0.
const fn bucket_of(value: u64, mantissa_bits: u32) -> usize {
    let high = 63 - (value | 1 << mantissa_bits).leading_zeros();
    let shift = high - mantissa_bits;
    ((shift as usize) << mantissa_bits) + (value >> shift) as usize
}

/// log2 of the width of a bucket of [`bucket_of`] at `mantissa_bits`.
fn bucket_shift(index: usize, mantissa_bits: u32) -> u32 {
    (index >> mantissa_bits).saturating_sub(1) as u32
}

/// Lower bound of a bucket of [`bucket_of`] at `mantissa_bits`: the
/// deterministic representative every sketch quantile query answers with,
/// and a multiple of the bucket's width.
fn bucket_lower_bound(index: usize, mantissa_bits: u32) -> u64 {
    let m = 1usize << mantissa_bits;
    if index < 2 * m {
        // Linear region plus the first octave, where buckets are exact.
        return index as u64;
    }
    ((m + index % m) as u64) << bucket_shift(index, mantissa_bits)
}

/// Width of the sketch bucket containing `value` — the worst-case error of
/// a streaming quantile answer for sample sets containing `value`.
pub fn bucket_width_ns(value: u64) -> u64 {
    1 << bucket_shift(bucket_of(value, MANTISSA_BITS), MANTISSA_BITS)
}

/// The `rank`-th smallest (from 0) of the values in `slices` whose bits
/// above the lowest `open` are `prefix`. The open bits are chosen
/// [`RADIX_BITS`] at a time from the top: each pass counts the next digit
/// of the values that share the bits chosen so far and picks the digit the
/// rank falls in. `slices` is walked once per digit and nothing is copied
/// or reordered. `rank` must be below the number of such values.
fn radix_select<'a, T, I>(
    slices: impl Fn() -> I,
    mut rank: usize,
    mut prefix: u64,
    mut open: u32,
) -> u64
where
    T: Copy + Into<u64> + 'a,
    I: Iterator<Item = &'a [T]>,
{
    while open > 0 {
        let width = open.min(RADIX_BITS);
        let shift = open - width;
        let mask = (1u64 << width) - 1;
        let mut counts = [0usize; 1 << RADIX_BITS];
        for slice in slices() {
            for &v in slice {
                let v: u64 = v.into();
                if v.checked_shr(open).unwrap_or(0) == prefix {
                    counts[((v >> shift) & mask) as usize] += 1;
                }
            }
        }
        let digit = rank_in(&counts, &mut rank);
        prefix = prefix << width | digit as u64;
        open = shift;
    }
    prefix
}

/// The index of the bucket of `counts` that holds the `rank`-th value,
/// with `rank` turned into the rank within that bucket.
fn rank_in(counts: &[usize], rank: &mut usize) -> usize {
    let mut index = 0;
    while *rank >= counts[index] {
        *rank -= counts[index];
        index += 1;
    }
    index
}

/// The exact-mode samples: append-only, in delivery order, 4 B each (see
/// the module doc). Serialized as the sequence of sample values.
#[derive(Clone, Default)]
struct Samples {
    /// Frozen chunks, shared with every clone. Full ones unless a merge
    /// froze a partial one.
    frozen: Vec<Arc<[u32]>>,
    /// The chunk being filled; its capacity never exceeds [`CHUNK`].
    tail: Vec<u32>,
    /// The values behind the [`WIDE`] markers, in order: one per marker.
    wide: Vec<u64>,
}

impl Samples {
    fn push(&mut self, value: u64) {
        if self.tail.len() == self.tail.capacity() {
            self.grow();
        }
        match u32::try_from(value) {
            Ok(narrow) if narrow != WIDE => self.tail.push(narrow),
            _ => {
                self.tail.push(WIDE);
                self.wide.push(value);
            }
        }
    }

    /// Make room in the full owned chunk: freeze it at [`CHUNK`] samples.
    /// The first chunk grows by doubling, so a few samples cost a few
    /// bytes; once one chunk is frozen, the next is allocated whole.
    #[cold]
    fn grow(&mut self) {
        if self.tail.len() == CHUNK {
            self.freeze();
        }
        let len = self.tail.len();
        let target = if self.frozen.is_empty() {
            (2 * len).clamp(16, CHUNK)
        } else {
            CHUNK
        };
        self.tail.reserve_exact(target - len);
    }

    /// Move the owned chunk, if it holds anything, into the frozen list.
    fn freeze(&mut self) {
        if !self.tail.is_empty() {
            self.frozen.push(Arc::from(std::mem::take(&mut self.tail)));
        }
    }

    /// Append `other`'s samples: its frozen chunks by reference, a frozen
    /// copy of its owned chunk, after this side's own.
    fn append(&mut self, other: &Samples) {
        self.freeze();
        self.frozen.extend(other.frozen.iter().cloned());
        if !other.tail.is_empty() {
            self.frozen.push(Arc::from(&other.tail[..]));
        }
        self.wide.extend_from_slice(&other.wide);
    }

    fn len(&self) -> usize {
        self.frozen.iter().map(|c| c.len()).sum::<usize>() + self.tail.len()
    }

    /// The chunks in order, wide samples as their markers.
    fn slices(&self) -> impl Iterator<Item = &[u32]> {
        self.frozen
            .iter()
            .map(|c| &c[..])
            .chain(std::iter::once(&self.tail[..]))
    }

    /// The samples in delivery order.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut wide = self.wide.iter();
        self.slices().flatten().map(move |&v| match v {
            WIDE => *wide.next().expect("one wide value per marker"),
            narrow => u64::from(narrow),
        })
    }

    /// The `rank`-th smallest sample (from 0; `rank < len`). Every
    /// narrow sample is below every marker, so a selection over the chunks
    /// either answers or lands on a marker, and then the rank among the
    /// wide samples decides.
    fn select(&self, rank: usize) -> u64 {
        let (bucket, in_bucket) = self.first_digit(rank);
        let open = bucket_shift(bucket, SELECT_BITS);
        let prefix = bucket_lower_bound(bucket, SELECT_BITS) >> open;
        let narrow = radix_select(|| self.slices(), in_bucket, prefix, open);
        if narrow != u64::from(WIDE) {
            return narrow;
        }
        let wide = || std::iter::once(&self.wide[..]);
        let narrow_count = self.len() - self.wide.len();
        radix_select(wide, rank - narrow_count, 0, u64::BITS)
    }

    /// The first digit of [`Samples::select`]: the log-linear bucket at
    /// [`SELECT_BITS`] of the `rank`-th chunk value, and its rank there.
    /// One pass; below 2^11 ns a bucket is a value, so it answers alone.
    /// Not inlined: its 184 KiB of counters stay off the frame (and the
    /// stack probe) of every other query.
    #[inline(never)]
    fn first_digit(&self, mut rank: usize) -> (usize, usize) {
        let mut counts = [0usize; SELECT_BUCKETS];
        for slice in self.slices() {
            for &v in slice {
                counts[bucket_of(u64::from(v), SELECT_BITS)] += 1;
            }
        }
        (rank_in(&counts, &mut rank), rank)
    }

    /// The least sample; 0 when empty. All markers or none: the side list.
    fn min(&self) -> u64 {
        let chunk_min = |s: &[u32]| s.iter().copied().fold(WIDE, u32::min);
        match self.slices().map(chunk_min).fold(WIDE, u32::min) {
            WIDE => self.wide.iter().copied().min().unwrap_or(0),
            lo => u64::from(lo),
        }
    }

    /// The greatest sample; 0 when empty.
    fn max(&self) -> u64 {
        let chunk_max = |s: &[u32]| s.iter().copied().fold(0, u32::max);
        match self.wide.iter().copied().max() {
            Some(wide) => wide,
            None => u64::from(self.slices().map(chunk_max).fold(0, u32::max)),
        }
    }

    /// Samples strictly below `threshold`. A marker is never below the
    /// clamped cut, and a narrow sample is below it exactly when it is
    /// below `threshold`.
    fn count_below(&self, threshold: u64) -> usize {
        let cut = u32::try_from(threshold).unwrap_or(WIDE);
        let below = |s: &[u32]| s.iter().filter(|&&v| v < cut).count();
        let narrow: usize = self.slices().map(below).sum();
        narrow + self.wide.iter().filter(|&&v| v < threshold).count()
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.frozen.capacity() * size_of::<Arc<[u32]>>()
            + self.frozen.iter().map(|c| c.len()).sum::<usize>() * size_of::<u32>()
            + self.tail.capacity() * size_of::<u32>()
            + self.wide.capacity() * size_of::<u64>()
    }
}

impl std::fmt::Debug for Samples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Samples {
    fn serialize(&self, out: &mut dyn Emitter) {
        out.seq_begin(self.len());
        for v in self.iter() {
            out.int(i128::from(v));
        }
        out.seq_end();
    }
}

/// Streams the sequence into chunks, each allocated at its final size.
impl Deserialize for Samples {
    fn deserialize(src: &mut dyn Source) -> Result<Self, Error> {
        let mut left = src.seq_begin()?;
        let mut samples = Samples::default();
        while left > 0 {
            samples.freeze();
            let n = left.min(CHUNK);
            serde::reserve(&mut samples.tail, n)?;
            for _ in 0..n {
                samples.push(u64::deserialize(src)?);
            }
            left -= n;
        }
        src.seq_end()?;
        Ok(samples)
    }
}

/// A collection of latency samples (nanoseconds).
///
/// Serialized exact-mode values from earlier layouts (plain
/// `samples` + `sum`) deserialize unchanged: every streaming-mode field
/// defaults to the exact-mode value.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Exact mode: every sample, in delivery order.
    samples: Samples,
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
            let idx = bucket_of(latency_ns, MANTISSA_BITS);
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

    /// The `q`-quantile (0 ≤ q ≤ 1) using nearest-rank interpolation;
    /// 0 when empty. Exact mode answers with the ranked sample; streaming
    /// mode answers with the lower bound of the bucket holding that rank
    /// (clamped into `[min, max]`), so the answer is within one bucket
    /// width of the exact quantile.
    pub fn quantile_ns(&self, q: f64) -> u64 {
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
                    return bucket_lower_bound(idx, MANTISSA_BITS).clamp(self.min, self.max);
                }
            }
            return self.max;
        }
        let n = self.samples.len();
        if n == 0 {
            return 0;
        }
        self.samples.select(((n - 1) as f64 * q).round() as usize)
    }

    /// Median (50th percentile) in nanoseconds.
    pub fn median_ns(&self) -> u64 {
        self.quantile_ns(0.5)
    }

    /// First quartile in nanoseconds.
    pub fn q1_ns(&self) -> u64 {
        self.quantile_ns(0.25)
    }

    /// Third quartile in nanoseconds.
    pub fn q3_ns(&self) -> u64 {
        self.quantile_ns(0.75)
    }

    /// 95th percentile in nanoseconds.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th percentile in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Maximum sample (0 when empty). Exact in both modes.
    pub fn max_ns(&self) -> u64 {
        if self.streaming {
            return self.max;
        }
        self.samples.max()
    }

    /// Minimum sample (0 when empty). Exact in both modes.
    pub fn min_ns(&self) -> u64 {
        if self.streaming {
            return self.min;
        }
        self.samples.min()
    }

    /// Fraction of samples strictly below `threshold_ns`
    /// (e.g. the paper's "80.99 % of packets below 2 µs").
    ///
    /// Streaming mode answers at bucket granularity: samples in the bucket
    /// containing `threshold_ns` count as not-below. When the threshold is
    /// a bucket boundary (powers of two times small integers — 2 µs is
    /// one), the answer is exact.
    pub fn fraction_below(&self, threshold_ns: u64) -> f64 {
        if self.streaming {
            if self.count == 0 {
                return 0.0;
            }
            let cut = bucket_of(threshold_ns, MANTISSA_BITS);
            let below: u64 = self.bins.iter().take(cut).sum();
            return below as f64 / self.count as f64;
        }
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        self.samples.count_below(threshold_ns) as f64 / n as f64
    }

    /// Merge another collection into this one.
    ///
    /// * streaming ← streaming: elementwise integer bin addition plus
    ///   integer sum/count and min/max folds — order-independent, so any
    ///   shard partition of a delivery stream merges to the bit-identical
    ///   unpartitioned sketch.
    /// * exact ← exact: the other side's samples follow this side's; its
    ///   frozen chunks are shared, not copied, and only its owned chunk
    ///   (at most 16 KiB) is copied.
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
                for s in other.samples.iter() {
                    self.record(s);
                }
            }
            return;
        }
        assert!(
            !other.streaming,
            "cannot merge a streaming sketch into exact-mode LatencyStats"
        );
        self.samples.append(&other.samples);
        self.sum += other.sum;
    }

    /// Heap footprint of this collection in bytes (the `memory_bytes`
    /// rollup unit): the retained samples in exact mode — 4 B a sample,
    /// the owned chunk at its capacity, and the chunk list — and the
    /// fixed-size bin array in streaming mode. A frozen chunk shared with
    /// a clone is counted by each owner.
    pub fn memory_bytes(&self) -> usize {
        self.samples.memory_bytes() + self.bins.capacity() * std::mem::size_of::<u64>()
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
        let s = LatencyStats::new();
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
        let s = stats(&values);
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
        let s = stats(&[1, 2, 2, 3, 10]);
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
        let b = stats(&[4, 8, 2]);
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
        // The name is older than the store: queries now select in place,
        // so they leave both the memory and the delivery order as they were.
        let values: Vec<u64> = (0..1_000u64).map(|i| i * 7_919 % 1_009).collect();
        let s = stats(&values);
        let bytes = s.memory_bytes();
        let mut oracle = values.clone();
        oracle.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let rank = ((oracle.len() - 1) as f64 * q).round() as usize;
            assert_eq!(s.quantile_ns(q), oracle[rank], "q={q}");
        }
        assert_eq!(s.memory_bytes(), bytes, "no sorted copy");
        assert_eq!(s.samples.iter().collect::<Vec<_>>(), values);
    }

    /// A deterministic xorshift stream.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Every order statistic of `s` against a sort of `values`.
    fn assert_matches_sorted(s: &LatencyStats, values: &[u64], what: &str) {
        let mut oracle = values.to_vec();
        oracle.sort_unstable();
        assert_eq!(s.count(), oracle.len(), "{what}");
        assert_eq!(s.samples.iter().collect::<Vec<_>>(), values, "{what}");
        if oracle.is_empty() {
            assert_eq!((s.min_ns(), s.max_ns(), s.p99_ns()), (0, 0, 0), "{what}");
            return;
        }
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 1.0] {
            let rank = ((oracle.len() - 1) as f64 * q).round() as usize;
            assert_eq!(s.quantile_ns(q), oracle[rank], "{what}: q={q}");
        }
        assert_eq!(s.min_ns(), oracle[0], "{what}");
        assert_eq!(s.max_ns(), oracle[oracle.len() - 1], "{what}");
        for &t in oracle
            .iter()
            .step_by(oracle.len() / 7 + 1)
            .chain(&[0, u64::MAX])
        {
            let below = oracle.partition_point(|&x| x < t);
            assert_eq!(
                s.fraction_below(t),
                below as f64 / oracle.len() as f64,
                "{what}: below {t}"
            );
        }
    }

    #[test]
    fn selection_equals_the_sorted_oracle() {
        let edges = [
            u64::from(u32::MAX) - 1,
            u64::from(u32::MAX),
            (1 << 32) + 1,
            u64::MAX,
        ];
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        let mut sets: Vec<(String, Vec<u64>)> = vec![
            ("empty".into(), vec![]),
            ("one".into(), vec![42]),
            ("one wide".into(), vec![u64::MAX]),
            ("all equal".into(), vec![7; 40_000]),
            ("edges".into(), edges.repeat(3)),
        ];
        for (n, scale) in [(100, 50), (20_000, 3_000), (40_000, 1 << 40)] {
            let mut values: Vec<u64> = (0..n).map(|_| next() % scale).collect();
            sets.push((format!("{n} below {scale}"), values.clone()));
            // The same set with duplicates and every edge mixed in.
            for (i, &edge) in edges.iter().enumerate() {
                let at = (next() as usize) % values.len();
                values.insert(at, edge);
                values.push(values[i]);
            }
            sets.push((format!("{n} below {scale} with edges"), values));
        }
        for (what, values) in &sets {
            assert_matches_sorted(&stats(values), values, what);
            // Merged from uneven pieces: partial chunks sit mid-list, and
            // a merge into an empty side and of an empty side both work.
            let mut merged = LatencyStats::new();
            let mut rest = &values[..];
            let mut cut = 1;
            while !rest.is_empty() {
                let (piece, after) = rest.split_at(cut.min(rest.len()));
                merged.merge(&stats(piece));
                merged.merge(&LatencyStats::new());
                rest = after;
                cut = cut * 7 + 3_001;
            }
            assert_matches_sorted(&merged, values, &format!("{what}, merged"));
        }
    }

    #[test]
    fn a_clone_and_its_original_do_not_see_each_others_pushes() {
        // One frozen chunk shared, the owned one copied.
        let base: Vec<u64> = (0..CHUNK as u64 + 100).collect();
        let mut original = stats(&base);
        let mut clone = original.clone();
        original.record(1 << 40);
        original.record(5);
        clone.record(9);
        let all = |s: &LatencyStats| s.samples.iter().collect::<Vec<_>>();
        assert_eq!(all(&original), [&base[..], &[1 << 40, 5]].concat());
        assert_eq!(all(&clone), [&base[..], &[9]].concat());
        assert_eq!(original.max_ns(), 1 << 40);
        assert_eq!(clone.max_ns(), CHUNK as u64 + 99);
    }

    #[test]
    fn iteration_follows_push_order_wide_values_included() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let values: Vec<u64> = (0..3 * CHUNK + 17)
            .map(|i| match i % 997 {
                0 => u64::MAX - i as u64,
                1 => u64::from(u32::MAX),
                _ => next() % 100_000,
            })
            .collect();
        let s = stats(&values);
        assert_eq!(s.samples.iter().collect::<Vec<_>>(), values);
        // The wire form is the same sequence, and reads back to it.
        let json = serde_json::to_string(&s).unwrap();
        let back: LatencyStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.samples.iter().collect::<Vec<_>>(), values);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(
            s.memory_bytes() - back.memory_bytes(),
            (CHUNK - 17) * 4,
            "decoding allocates the owned chunk at its final size"
        );
    }

    #[test]
    fn linear_buckets_are_exact() {
        for v in 0..128u64 {
            assert_eq!(bucket_of(v, MANTISSA_BITS), v as usize, "value {v}");
            assert_eq!(
                bucket_lower_bound(v as usize, MANTISSA_BITS),
                v,
                "value {v}"
            );
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
            let idx = bucket_of(v, MANTISSA_BITS);
            let lo = bucket_lower_bound(idx, MANTISSA_BITS);
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
        let s = sketch(&values);
        let e = stats(&values);
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
            let e = stats(&values);
            let s = sketch(&values);
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
        let e = stats(&values);
        let s = sketch(&values);
        // 2_000 ns is a bucket lower bound in the 6-mantissa-bit sketch.
        assert_eq!(
            bucket_lower_bound(bucket_of(2_000, MANTISSA_BITS), MANTISSA_BITS),
            2_000
        );
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
        let s: LatencyStats = serde_json::from_str(json).unwrap();
        assert!(!s.is_streaming());
        assert_eq!(s.count(), 3);
        assert_eq!(s.median_ns(), 5);
    }
}
