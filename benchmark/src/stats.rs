//! Order statistics, the calibration kernel and the per-metric sample
//! collector shared by every workload.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of unsorted values (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m % 2 == 1 {
        v[m / 2]
    } else {
        (v[m / 2 - 1] + v[m / 2]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method),
/// so the spread printed here is the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest quantile not above `want` that still has at least ten of
/// `n` samples beyond it (never below the median): a p99 of 98 samples is
/// the second largest value, which is a maximum, not a percentile.
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return want;
    }
    want.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// Nearest-rank quantile of sorted samples (0 for none).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// splitmix64 step: the benchmark's deterministic generator.
pub fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sub-seed of repetition `rep` of a run started with `seed`.
pub fn sub_seed(seed: u64, rep: u64) -> u64 {
    let mut x = seed ^ rep.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix(&mut x)
}

const CALIB_OPS: u64 = 8_000_000;

/// The calibration kernel: a fixed register-only splitmix loop, run between
/// repetitions. It does no memory traffic and takes no input, so a change
/// in its ns/op is a change in the machine's speed, not in the program.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    let mut acc = 0u64;
    for _ in 0..CALIB_OPS {
        acc ^= splitmix(&mut x);
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / CALIB_OPS as f64
}

/// Per-metric samples of one run: each repetition adds one value per
/// metric; the run reports their median.
#[derive(Default)]
pub struct Collector {
    vals: BTreeMap<&'static str, Vec<f64>>,
}

impl Collector {
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.vals.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.vals.get(name).map(Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.get(name).map(median)
    }

    /// Move every sample of `other` into `self`.
    pub fn absorb(&mut self, other: Collector) {
        for (k, v) in other.vals {
            self.vals.entry(k).or_default().extend(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]), (15.0, 30.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(supported_quantile(10_000, 0.99), 0.99);
        assert_eq!(supported_quantile(1_000, 0.99), 0.99);
        // 98 samples support p89.8, not p99.
        assert!((supported_quantile(98, 0.99) - (1.0 - 10.0 / 98.0)).abs() < 1e-12);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(supported_quantile(12, 0.99), 0.5);
        let sorted: Vec<u64> = (1..=100).collect();
        let q = supported_quantile(sorted.len(), 0.99);
        assert_eq!(q, 0.9);
        assert_eq!(quantile_sorted(&sorted, q), 90);
        assert_eq!(sorted.len() - 90, 10, "ten samples lie beyond the reported value");
    }

    #[test]
    fn quantile_sorted_is_nearest_rank() {
        let v = [10, 20, 30, 40];
        assert_eq!(quantile_sorted(&v, 0.5), 20);
        assert_eq!(quantile_sorted(&v, 0.51), 30);
        assert_eq!(quantile_sorted(&v, 1.0), 40);
        assert_eq!(quantile_sorted(&v, 0.0), 10);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn sub_seeds_differ_per_rep_and_repeat_per_seed() {
        assert_eq!(sub_seed(42, 3), sub_seed(42, 3));
        assert_ne!(sub_seed(42, 3), sub_seed(42, 4));
        assert_ne!(sub_seed(42, 3), sub_seed(43, 3));
    }
}
