//! Cycle-domain latency recording in fixed memory.
//!
//! At millions of operations per run, storing every latency sample for an
//! exact [`crate::percentile`] is exactly the per-op memory the footprint
//! audit forbids. [`LatencyRecorder`] is a log-linear histogram with
//! HdrHistogram's layout (<http://hdrhistogram.org/>): values below 256
//! each have a bucket of their own, and every power of two above that is
//! split into 2^7 equal sub-buckets. One `u64` count per bucket covers the
//! whole `u64` range in 7,424 buckets (58 KB), allocated once, by the
//! first sample. (Allocated in the constructor instead, it tripled the
//! host time of building and dropping engines in a loop under glibc's
//! malloc — a cost that vanished with `mmap` allocation turned off — so
//! a recorder that is never fed costs nothing.)
//!
//! ## Error bound
//!
//! A bucket starting at `lo ≥ 256` is `lo / 2^7` wide, so every value in
//! it is within a relative `2^-7` (0.78 %) of every other. A quantile
//! takes the bucket of the nearest-rank sample `s` and reports that
//! bucket's highest value, clamped to the exact `[min, max]`: the result
//! lies in `[s, s·(1 + 2^-7)]`, and equals `s` below 256. `count`, `min`
//! and `max` are exact.
//!
//! ## Determinism
//!
//! Recording is a counter increment, so the recorder's state is a pure
//! function of the multiset of samples — independent of their order and
//! with no seed to fix.

/// Linear sub-buckets per power of two, as a power of two: the relative
/// error bound is `2^-SUB_BITS`.
const SUB_BITS: u32 = 7;

/// Sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;

/// Buckets covering `0..=u64::MAX`: `2·SUB` exact values, then `SUB` for
/// each of the remaining `64 − SUB_BITS − 1` powers of two.
const BUCKETS: usize = (u64::BITS - SUB_BITS + 1) as usize * SUB;

/// The bucket holding `v`. Below `2·SUB` a value is its own bucket; above,
/// `v` keeps its top `SUB_BITS + 1` bits and the dropped bit count picks
/// the power-of-two range.
fn bucket_of(v: u64) -> usize {
    let shift = (u64::BITS - v.leading_zeros()).saturating_sub(SUB_BITS + 1);
    shift as usize * SUB + (v >> shift) as usize
}

/// The highest value that lands in bucket `b`.
fn bucket_high(b: usize) -> u64 {
    let shift = (b / SUB).saturating_sub(1);
    let lo = ((b - shift * SUB) as u64) << shift;
    // `lo + 2^shift - 1` would overflow in the top bucket.
    lo + ((1u64 << shift) - 1)
}

/// The fixed latency digest: exact count and max, and p50/p99/p999 each
/// within a relative `2^-7` above the nearest-rank sample, all in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of recorded latencies.
    pub count: u64,
    /// Median, in cycles.
    pub p50: u64,
    /// 99th percentile, in cycles.
    pub p99: u64,
    /// 99.9th percentile, in cycles.
    pub p999: u64,
    /// Exact maximum, in cycles.
    pub max: u64,
}

/// A cycle-domain latency recorder: a fixed log-linear histogram (see the
/// module docs) with the reset-between-windows discipline the measurement
/// loops need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyRecorder {
    /// Samples per bucket (see [`bucket_of`]): empty until the first
    /// sample, then `BUCKETS` long.
    counts: Vec<u64>,
    /// Samples recorded since the last reset.
    count: u64,
    /// Exact smallest sample (`u64::MAX` when empty).
    min: u64,
    /// Exact largest sample (0 when empty).
    max: u64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self {
            counts: Vec::new(),
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LatencyRecorder {
    /// Same as [`LatencyRecorder::default`]: the histogram has no
    /// randomness, so the seed is ignored.
    pub fn new(_seed: u64) -> Self {
        Self::default()
    }

    /// Records one latency, in cycles.
    pub fn record(&mut self, cycles: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket_of(cycles)] += 1;
        self.count += 1;
        self.min = self.min.min(cycles);
        self.max = self.max.max(cycles);
    }

    /// Number of latencies recorded since the last reset.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest latency since the last reset (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// The `q`-quantile of a non-empty recorder: the highest value of the
    /// bucket holding the nearest-rank sample `round(q·(count−1))`.
    fn quantile(&self, q: f64) -> u64 {
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_high(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The p50/p99/p999/max digest of everything since the last reset.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: self.count,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max,
        }
    }

    /// Clears recorded samples (e.g. between warm-up and the measurement
    /// window) back to the exact post-construction state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Heap bytes held by the recorder: none before the first sample.
    pub fn footprint_bytes(&self) -> u64 {
        (self.counts.capacity() * std::mem::size_of::<u64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_u64_within_64_kb() {
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
        assert!(BUCKETS * std::mem::size_of::<u64>() <= 64 * 1024);
    }

    #[test]
    fn values_below_256_have_a_bucket_each() {
        for v in 0..256u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn powers_of_two_and_their_neighbours_land_within_the_bound() {
        for k in 0..64u32 {
            let p = 1u64 << k;
            for v in [p - 1, p, p + 1] {
                let b = bucket_of(v);
                assert!(b < BUCKETS, "2^{k}: {v} -> bucket {b}");
                let high = bucket_high(b);
                assert!(high >= v, "2^{k}: bucket {b} ends at {high} < {v}");
                assert!(
                    high - v <= v >> SUB_BITS,
                    "2^{k}: {v} reported as {high}, past 2^-{SUB_BITS}"
                );
                // `high` is the last value of `b`: the next starts `b + 1`.
                assert_eq!(bucket_of(high), b);
                if high < u64::MAX {
                    assert_eq!(bucket_of(high + 1), b + 1, "2^{k}: gap after bucket {b}");
                }
            }
            // A power of two opens a bucket.
            assert_eq!(bucket_of(p - 1) + 1, bucket_of(p), "2^{k}");
        }
    }

    #[test]
    fn the_index_is_monotone_and_dense() {
        // Walking every bucket by its upper edge visits each index once,
        // in order, and ends at u64::MAX.
        let mut v = 0u64;
        for b in 0..BUCKETS {
            assert_eq!(bucket_of(v), b, "value {v}");
            let high = bucket_high(b);
            assert!(high >= v);
            if b + 1 < BUCKETS {
                v = high + 1;
            } else {
                assert_eq!(high, u64::MAX);
            }
        }
    }

    #[test]
    fn small_streams_are_exact() {
        // Below 256 every bucket is one value wide: every quantile is the
        // exact nearest-rank sample.
        let mut r = LatencyRecorder::default();
        for v in 0..50u64 {
            r.record(v);
        }
        let s = r.summary();
        assert_eq!(s.count, 50);
        assert_eq!(r.min(), Some(0));
        assert_eq!(s.max, 49);
        assert_eq!(s.p50, 25); // round(0.5 · 49) = 25 (ties away from zero)
        assert_eq!(s.p99, 49);
    }

    #[test]
    fn memory_stays_bounded_under_a_long_stream() {
        let mut r = LatencyRecorder::default();
        assert_eq!(r.footprint_bytes(), 0);
        r.record(1);
        let one = r.footprint_bytes();
        assert_eq!(one, (BUCKETS * std::mem::size_of::<u64>()) as u64);
        for v in 0..200_000u64 {
            r.record(v.wrapping_mul(0x9e37_79b9) % 10_000);
        }
        r.record(u64::MAX);
        assert_eq!(r.footprint_bytes(), one);
        assert_eq!(r.summary().max, u64::MAX);
    }

    #[test]
    fn identical_streams_give_identical_state() {
        let feed = |reverse: bool| {
            let mut r = LatencyRecorder::default();
            let mut vs: Vec<u64> = (0..50_000u64)
                .map(|i| i.wrapping_mul(6364136223846793005) >> 40)
                .collect();
            if reverse {
                vs.reverse();
            }
            for v in vs {
                r.record(v);
            }
            r
        };
        // Order does not matter either: the state is the multiset.
        assert_eq!(feed(false), feed(true));
    }

    #[test]
    fn reset_restores_the_exact_initial_state() {
        let mut a = LatencyRecorder::default();
        for v in 0..10_000u64 {
            a.record(v * 977);
        }
        a.reset();
        assert_eq!(a, LatencyRecorder::default());
        // And the post-reset stream behaves like a fresh recorder.
        let mut c = LatencyRecorder::default();
        for v in 0..5_000u64 {
            a.record(v * 3);
            c.record(v * 3);
        }
        assert_eq!(a, c);
    }

    #[test]
    fn empty_sketch_yields_none_and_zero_summary() {
        let r = LatencyRecorder::default();
        assert_eq!(r.count(), 0);
        assert_eq!(r.min(), None);
        assert_eq!(r.summary(), LatencySummary::default());
    }

    #[test]
    fn recorder_summary_and_reset() {
        let mut r = LatencyRecorder::new(11);
        for v in 1..=1000u64 {
            r.record(v);
        }
        let s = r.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // Nearest-rank samples 501, 990 and 999, each reported as the top
        // of its bucket (2 wide below 512, 4 wide above).
        assert_eq!((s.p50, s.p99, s.p999), (501, 991, 999));
        r.reset();
        assert_eq!(r.count(), 0);
        assert_eq!(r.summary(), LatencySummary::default());
    }
}
