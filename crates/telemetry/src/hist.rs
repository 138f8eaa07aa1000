//! Log-linear fixed-bucket histograms (HDR style).
//!
//! The bucket geometry is the classic log-linear scheme: values below
//! `2^SUB_BITS` get exact unit buckets; every higher power-of-two range
//! is split into `2^SUB_BITS` equal-width sub-buckets, so relative
//! error is bounded at `2^-SUB_BITS` (±6.25% with the 4 sub-bit
//! geometry used here) across the whole range. Values of `2^40` and
//! above saturate into the last bucket (the exact observed maximum is
//! tracked separately).
//!
//! An empty histogram is one null pointer: the bucket array and the
//! `count/sum/min/max` summary live behind a single box allocated by
//! the first [`Histogram::record`] (or the first [`Histogram::merge`] of
//! a non-empty one). After that, recording is alloc-free and wait-free:
//! one array index computation (a `leading_zeros`, two shifts) and a
//! counter increment, no locks, no atomics — whoever holds the handle
//! holds it exclusively (a shard lends its histograms to the one stack
//! it is driving, exactly like its `WireScratch` pool), and hosts
//! aggregate by [`Histogram::merge`]. Merging is pure bucket-count
//! addition, so per-shard partials fold to the same totals whatever
//! order (or worker count) produced them — the property that keeps
//! `par_equiv`'s serial/parallel bit-equality intact when reports
//! include percentiles, and the reason one shard-owned histogram can
//! stand in for the thousands of per-stack ones it replaces.

use std::fmt;

/// Sub-bucket precision: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets (relative error ≤ 2^-SUB_BITS).
const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two range.
const SUB: usize = 1 << SUB_BITS;
/// Highest bit position tracked exactly; values at or above
/// `2^(MAX_EXP+1)` saturate into the last bucket.
const MAX_EXP: u32 = 39;
/// Total bucket count for the geometry above.
const NBUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize + 1) * SUB;

/// A fixed-geometry log-linear histogram of `u64` samples.
///
/// With the default geometry (4 sub-bits, max exponent 39) the value
/// range is `0 ..= 2^40-1` — for nanosecond latencies that is ~18
/// minutes at ±6.25% resolution — in `592 × 8` bytes of counters once
/// the first sample lands, and one null pointer until then.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `None` until the first sample: a histogram nobody records into
    /// (every hosted stack's, while its shard's set is not lent to it)
    /// costs its handle and nothing else. An allocated block always
    /// holds at least one sample, so `==` on the handle is `==` on the
    /// recorded multiset.
    buckets: Option<Box<Buckets>>,
}

/// The allocated half of a [`Histogram`].
#[derive(Clone, PartialEq, Eq)]
struct Buckets {
    /// Bucket counters. `u64`: one shard-owned histogram counts what up
    /// to 10^5 stacks record, so a bucket must not saturate before the
    /// sample count itself does.
    counts: [u64; NBUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Buckets {
    /// Out of line and cold: a 4.7 KB temporary inlined into `record`
    /// would give every function that records a page-crossing stack
    /// frame (and its entry probe) for an allocation that happens once.
    #[cold]
    #[inline(never)]
    fn empty() -> Box<Buckets> {
        Box::new(Buckets { counts: [0; NBUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 })
    }
}

impl Histogram {
    /// An empty histogram (no allocation).
    pub const fn new() -> Histogram {
        Histogram { buckets: None }
    }

    /// Bucket index of `value` (saturating at the last bucket).
    #[inline]
    fn index(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        if msb > MAX_EXP {
            return NBUCKETS - 1;
        }
        let group = (msb - SUB_BITS + 1) as usize;
        let sub = ((value >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        group * SUB + sub
    }

    /// Representative value of bucket `i` (midpoint of its range), for
    /// percentile reconstruction.
    fn bucket_value(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let group = (i / SUB) as u32;
        let sub = (i % SUB) as u64;
        let msb = group + SUB_BITS - 1;
        let width = 1u64 << (msb - SUB_BITS);
        (1u64 << msb) + sub * width + width / 2
    }

    /// Record one sample. The first one allocates the bucket block;
    /// every later one is alloc-free and wait-free: an index computation
    /// and a counter increment.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let b = self.buckets.get_or_insert_with(Buckets::empty);
        b.counts[Self::index(value)] += 1;
        b.count += 1;
        b.sum = b.sum.saturating_add(value);
        b.min = b.min.min(value);
        b.max = b.max.max(value);
    }

    /// Fold `other` into `self`: pure addition on every bucket, so
    /// folding is associative and commutative — per-shard partials
    /// merge to the same totals in any order. Folding an empty
    /// histogram in is one branch.
    pub fn merge(&mut self, other: &Histogram) {
        let Some(o) = &other.buckets else { return };
        let b = self.buckets.get_or_insert_with(Buckets::empty);
        for (a, c) in b.counts.iter_mut().zip(o.counts.iter()) {
            *a += c;
        }
        b.count += o.count;
        b.sum = b.sum.saturating_add(o.sum);
        b.min = b.min.min(o.min);
        b.max = b.max.max(o.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.as_ref().map_or(0, |b| b.count)
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.buckets.as_ref().map_or(0, |b| b.min)
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets.as_ref().map_or(0, |b| b.max)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        self.buckets.as_ref().map_or(0.0, |b| b.sum as f64 / b.count as f64)
    }

    /// Value at quantile `q` in `[0, 1]`, reconstructed from the bucket
    /// midpoints (relative error ≤ 2^-SUB_BITS); clamped to the exact
    /// observed `[min, max]`. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let Some(b) = &self.buckets else { return 0 };
        let target = ((q * b.count as f64).ceil() as u64).clamp(1, b.count);
        if target == b.count {
            return b.max;
        }
        let mut seen = 0u64;
        for (i, &c) in b.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The saturation bucket has no meaningful midpoint; its
                // representative is the exact observed maximum.
                if i == NBUCKETS - 1 {
                    return b.max;
                }
                return Self::bucket_value(i).clamp(b.min, b.max);
            }
        }
        b.max
    }

    /// Heap bytes behind this histogram: the bucket block once a sample
    /// has landed, nothing before (what [`crate::StackTelemetry::set_bytes`]
    /// sums to show a hosted stack keeps none).
    pub fn mem_bytes(&self) -> usize {
        self.buckets.as_ref().map_or(0, |b| std::mem::size_of_val(&**b))
    }

    /// Condense into the fixed percentile summary reports carry.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

/// The fixed percentile summary of one [`Histogram`], as carried by
/// [`crate::TelemetryReport`]. Values are in the histogram's unit
/// (nanoseconds for the latency histograms, plain counts otherwise).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    /// Recorded samples.
    pub count: u64,
    /// Exact observed minimum.
    pub min: u64,
    /// Exact observed maximum.
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Median (bucket-midpoint reconstruction, ±6.25%).
    pub p50: u64,
    /// 90th percentile.
    pub(crate) p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub(crate) p999: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        // Unit buckets below 2^SUB_BITS: percentiles are exact.
        assert_eq!(h.percentile(0.5), 7);
        assert_eq!(h.percentile(1.0), 15);
    }

    #[test]
    fn index_is_monotonic_and_in_range() {
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..63 {
            let v = 1u64 << shift;
            probes.extend([v, v + 1, v + (v >> 1), v.saturating_mul(2) - 1]);
        }
        probes.sort_unstable();
        let mut last = 0usize;
        for probe in probes {
            let i = Histogram::index(probe);
            assert!(i < NBUCKETS, "index {i} out of range for {probe}");
            assert!(i >= last, "index not monotonic at {probe}");
            last = i;
        }
        assert_eq!(Histogram::index(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn bucket_value_bounds_relative_error() {
        for probe in [17u64, 1_000, 123_456, 7_000_000, 5_000_000_000, (1 << (MAX_EXP + 1)) - 1] {
            let mid = Histogram::bucket_value(Histogram::index(probe));
            let err = (mid as f64 - probe as f64).abs() / probe as f64;
            assert!(err <= 1.0 / SUB as f64, "error {err} too large for {probe} (mid {mid})");
        }
    }

    #[test]
    fn percentiles_of_uniform_range() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 1_000); // 1µs .. 100ms in 1µs steps
        }
        let p50 = h.percentile(0.5) as f64;
        let p99 = h.percentile(0.99) as f64;
        assert!((p50 / 50_000_000.0 - 1.0).abs() < 0.07, "p50 {p50}");
        assert!((p99 / 99_000_000.0 - 1.0).abs() < 0.07, "p99 {p99}");
        assert_eq!(h.percentile(1.0), 100_000_000);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut rng = 0x1234_5678u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut whole = Histogram::new();
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        for i in 0..30_000 {
            let v = next() % 10_000_000;
            whole.record(v);
            parts[i % 3].record(v);
        }
        // Fold the partials in a different order than they were filled.
        let mut folded = Histogram::new();
        for p in [&parts[2], &parts[0], &parts[1]] {
            folded.merge(p);
        }
        assert_eq!(folded, whole, "merge-by-addition must be order-independent");
        assert_eq!(folded.summary(), whole.summary());
    }

    #[test]
    fn oversize_values_saturate_and_keep_exact_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX, "last bucket clamps to the exact max");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn empty_is_one_pointer_and_allocates_on_first_record() {
        assert_eq!(std::mem::size_of::<Histogram>(), std::mem::size_of::<usize>());
        let mut h = Histogram::new();
        assert_eq!(h.mem_bytes(), 0);
        let mut sink = Histogram::new();
        sink.merge(&h);
        assert_eq!(sink.mem_bytes(), 0, "merging an empty histogram must not allocate");
        h.record(7);
        assert_eq!(h.mem_bytes(), (NBUCKETS + 4) * std::mem::size_of::<u64>());
        sink.merge(&h);
        assert_eq!(sink, h);
    }
}
