//! A log-bucketed latency histogram for end-to-end percentiles.
//!
//! `cnet loadgen` reports p50/p99/p999 over millions of per-burst
//! round-trip times, and the audit keeps a profile of QQC lateness, both
//! without allocating per sample or paying a sort at the end. A
//! [`LatencyHistogram`] buckets nanosecond values HDR-style: exact buckets
//! for 0..32 ns, then 32 geometric sub-buckets per power of two. With 32
//! sub-buckets per octave the relative error of any reported quantile is
//! below 1/32 ≈ 3.1% — far finer than the run-to-run noise of a networked
//! benchmark — while the whole histogram
//! is a fixed ~2K `u64` array: recording is two shifts and an increment,
//! merging is element-wise addition, and the memory footprint is
//! independent of the sample count.
//!
//! Quantiles report the **upper edge** of the containing bucket (clamped
//! to the exact observed maximum), so reported percentiles never
//! understate the latency a user actually saw.

/// Sub-bucket resolution: 2^5 = 32 buckets per power of two.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// Bucket count: values 0..32 map one-to-one, then each of the remaining
/// octaves of the u64 range contributes 32 sub-buckets.
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize) + SUB;

/// A fixed-size log-bucketed histogram of nanosecond latencies. See the
/// module docs for the bucketing scheme and error bound.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps a value to its bucket index. Values below 32 are exact; above,
/// the index is (octave, top-5-mantissa-bits).
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS here
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    SUB + octave * SUB + sub
}

/// The (inclusive) upper edge of a bucket: the largest value mapping to
/// that index. Quantiles report this edge so they never understate.
fn bucket_upper_edge(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = ((idx - SUB) / SUB) as u32;
    let sub = ((idx - SUB) % SUB) as u64;
    let base = 1u64 << (octave + SUB_BITS);
    let width = 1u64 << octave; // values per sub-bucket in this octave
                                // Summed as (base - 1) + ... so the top octave's edge (u64::MAX)
                                // does not overflow mid-expression.
    (base - 1) + (sub + 1) * width
}

impl LatencyHistogram {
    /// An empty histogram. The backing array is heap-allocated once
    /// (~15 KiB) and never grows.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram { counts: Box::new([0u64; BUCKETS]), total: 0, sum: 0, max: 0 }
    }

    /// Records one latency sample, in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.total += 1;
        self.sum += ns as u128;
        if ns > self.max {
            self.max = ns;
        }
    }

    /// Folds `other` into `self` (element-wise). Used to merge per-worker
    /// histograms into one report without sharing during the run.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples, in nanoseconds (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum / self.total as u128) as u64
        }
    }

    /// The value at quantile `q` in [0.0, 1.0]: an upper bound within
    /// ~3.1% (bucket upper edge, clamped to the observed maximum).
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based: ceil(q * total), at least 1.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_edge(idx).min(self.max);
            }
        }
        self.max
    }

    /// Convenience: the (p50, p99, p999) triple, in nanoseconds.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.99), self.quantile(0.999))
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (p50, p99, p999) = self.percentiles();
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50_ns", &p50)
            .field("p99_ns", &p99)
            .field("p999_ns", &p999)
            .field("max_ns", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.count(), 32);
        // Median of 0..=31: rank 16 => value 15.
        assert_eq!(h.quantile(0.5), 15);
    }

    #[test]
    fn bucket_index_and_edge_are_consistent() {
        // Every probed value must land in a bucket whose upper edge is
        // >= the value and within 1/32 relative error above it.
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            4_095,
            4_096,
            65_535,
            1_000_000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let idx = bucket_index(v);
            let edge = bucket_upper_edge(idx);
            assert!(edge >= v, "edge {edge} < value {v}");
            // Relative error bound (only meaningful for v >= 32).
            if v >= 32 {
                let err = (edge - v) as f64 / v as f64;
                assert!(err <= 1.0 / 32.0 + 1e-9, "value {v}: error {err}");
            }
            // Edges map back into their own bucket.
            assert_eq!(bucket_index(edge), idx, "edge {edge} of bucket {idx}");
            if edge < u64::MAX {
                assert!(bucket_index(edge + 1) > idx);
            }
        }
    }

    #[test]
    fn quantiles_bound_the_exact_values_within_the_error_budget() {
        // A deterministic skewed distribution: compare against exact
        // order statistics from a sorted copy.
        let mut h = LatencyHistogram::new();
        let mut values = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..100_000 {
            // xorshift-ish mix, squashed to a latency-like range.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = 1_000 + (x % 1_000_000); // 1µs .. 1ms
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for &q in &[0.5f64, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let approx = h.quantile(q);
            assert!(approx >= exact, "q{q}: approx {approx} < exact {exact}");
            let err = (approx - exact) as f64 / exact as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "q{q}: error {err} too large");
        }
        assert_eq!(h.max(), *values.last().unwrap());
        assert_eq!(h.quantile(1.0), *values.last().unwrap());
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..10_000u64 {
            let v = i * 37 + 5;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.mean(), whole.mean());
        for &q in &[0.1f64, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q{q} differs after merge");
        }
    }

    #[test]
    fn merging_disjoint_shards_keeps_quantiles_within_the_error_budget() {
        // Cluster audit merges per-node histogram shards whose ranges do
        // not overlap at all (e.g. head-local bursts vs forwarded hops):
        // fast shard in 1..10µs, slow shard in 1..10ms. The merged
        // quantiles must still bound the exact order statistics within
        // the 1/32 ≈ 3.1% bucket error.
        let mut fast = LatencyHistogram::new();
        let mut slow = LatencyHistogram::new();
        let mut values = Vec::new();
        let mut x = 0x243f6a8885a308d3u64;
        for i in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 4 == 0 {
                // Slow shard: 1ms .. 10ms — strictly above the fast range.
                let v = 1_000_000 + (x % 9_000_000);
                slow.record(v);
                values.push(v);
            } else {
                // Fast shard: 1µs .. 10µs.
                let v = 1_000 + (x % 9_000);
                fast.record(v);
                values.push(v);
            }
        }
        let mut merged = fast.clone();
        merged.merge(&slow);
        assert_eq!(merged.count(), 50_000);
        values.sort_unstable();
        // q=0.75 straddles the gap between the shards; the rest probe
        // deep inside each shard's range.
        for &q in &[0.25f64, 0.5, 0.74, 0.75, 0.76, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let approx = merged.quantile(q);
            assert!(approx >= exact, "q{q}: approx {approx} < exact {exact}");
            let err = (approx - exact) as f64 / exact as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "q{q}: error {err} exceeds 3.1%");
        }
        assert_eq!(merged.max(), *values.last().unwrap());
        // Merge order must not matter.
        let mut other = slow.clone();
        other.merge(&fast);
        for &q in &[0.25f64, 0.75, 0.999] {
            assert_eq!(merged.quantile(q), other.quantile(q));
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(10);
        h.record(20);
        h.record(33);
        assert_eq!(h.mean(), 21);
    }

    #[test]
    fn quantile_clamps_q_outside_the_unit_interval() {
        let mut h = LatencyHistogram::new();
        for v in [5u64, 500, 50_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.5), h.quantile(1.0));
        assert_eq!(h.quantile(0.0), 5, "q=0 is the smallest sample, not below it");
        assert_eq!(h.quantile(1.0), 50_000);
    }

    #[test]
    fn a_single_sample_is_every_quantile() {
        // The upper bucket edge is clamped to the observed maximum, so a
        // lone sample is reported exactly, not rounded up to its edge.
        let mut h = LatencyHistogram::new();
        h.record(1_000_003);
        assert!(bucket_upper_edge(bucket_index(1_000_003)) > 1_000_003);
        for q in [0.0f64, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 1_000_003, "q{q}");
        }
        assert_eq!(h.mean(), 1_000_003);
    }

    #[test]
    fn extreme_values_neither_overflow_nor_lose_the_max() {
        // The running sum is a u128, so two u64::MAX samples still have an
        // exact mean; the top octave's edge is u64::MAX itself.
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.mean(), ((2 * u64::MAX as u128) / 3) as u64);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn percentiles_are_the_three_quantiles_in_order() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let (p50, p99, p999) = h.percentiles();
        assert_eq!((p50, p99, p999), (h.quantile(0.50), h.quantile(0.99), h.quantile(0.999)));
        assert!(p50 <= p99 && p99 <= p999 && p999 <= h.max(), "{h:?}");
        let debug = format!("{h:?}");
        assert!(debug.contains("count: 10000"), "{debug}");
        assert!(debug.contains(&format!("p99_ns: {p99}")), "{debug}");
    }

    #[test]
    fn merging_an_empty_histogram_changes_nothing() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 300, 30_000, 3_000_000] {
            h.record(v);
        }
        let before = (h.count(), h.max(), h.mean(), h.percentiles());
        h.merge(&LatencyHistogram::new());
        assert_eq!((h.count(), h.max(), h.mean(), h.percentiles()), before);
        // And into an empty one, merging copies.
        let mut empty = LatencyHistogram::default();
        empty.merge(&h);
        assert_eq!((empty.count(), empty.max(), empty.mean(), empty.percentiles()), before);
    }
}
