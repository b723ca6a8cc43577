//! The executor's per-operation latency distribution (see
//! [`OpStats::latency`](crate::OpStats::latency)).

/// Sub-buckets per octave of a [`LatencyHistogram`] (`1 << SUB_BITS`).
const SUB_BITS: u32 = 3;

/// Buckets of a [`LatencyHistogram`]: one per microsecond below 8 µs,
/// then 8 per octave up to 2³² µs (≈ 72 minutes).
const LATENCY_BUCKETS: usize = 240;

/// Log-linear latency histogram over microseconds: one bucket per value
/// below 8 µs, then each octave `[2^e, 2^(e+1))` split into 8 equal
/// sub-buckets, so a bucket is never wider than 1/8 of its lower bound
/// and a quantile read from it overstates the sample by at most 12.5 %.
/// Samples from 2³² µs on share the last bucket. Fixed-size and `Copy`,
/// which keeps [`OpStats`](crate::OpStats) a plain value that snapshots
/// and diffs ([`OpStats::since`](crate::OpStats::since)) without
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts.
    pub counts: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Books one sample of `micros` microseconds.
    pub fn record(&mut self, micros: u64) {
        let bucket = if micros < 1 << SUB_BITS {
            micros as usize
        } else {
            // Octave `e` ≥ 3 starts at bucket `(e - 2) · 8`; the three
            // bits below the leading one pick the sub-bucket.
            let shift = u64::BITS - 1 - micros.leading_zeros() - SUB_BITS;
            let sub = (micros >> shift) as usize & ((1 << SUB_BITS) - 1);
            (((shift + 1) << SUB_BITS) as usize + sub).min(LATENCY_BUCKETS - 1)
        };
        self.counts[bucket] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The largest value (in microseconds) of the bucket containing the
    /// `q`-quantile sample, `q` in `[0, 1]`. Zero when empty. The bound
    /// is conservative: it overstates the true sample by at most 1/8.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let bucket = self.counts.iter().position(|&count| {
            seen += count;
            seen >= rank
        });
        let bucket = bucket.unwrap_or(LATENCY_BUCKETS - 1);
        if bucket < 1 << SUB_BITS {
            return bucket as u64;
        }
        // Inverse of `record`: the bucket's lower bound, plus its width.
        let shift = (bucket >> SUB_BITS) - 1;
        let sub = bucket as u64 & ((1 << SUB_BITS) - 1);
        let low = ((1 << SUB_BITS) + sub) << shift;
        low + (1 << shift) - 1
    }

    /// Median latency bucket bound, microseconds.
    pub fn p50_micros(&self) -> u64 {
        self.quantile_micros(0.50)
    }

    /// 95th-percentile latency bucket bound, microseconds.
    pub fn p95_micros(&self) -> u64 {
        self.quantile_micros(0.95)
    }

    /// 99th-percentile latency bucket bound, microseconds.
    pub fn p99_micros(&self) -> u64 {
        self.quantile_micros(0.99)
    }

    /// Per-bucket difference against an earlier snapshot (saturating).
    pub fn since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let counts = std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i]));
        LatencyHistogram { counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_lie_within_an_eighth_above_the_exact_ones() {
        // Log-uniform sample sets from 1 µs to 10 s (an LCG, so the sets
        // are fixed), each with both extremes.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            10f64.powf((state >> 11) as f64 / (1u64 << 53) as f64 * 7.0) as u64
        };
        for size in [1usize, 2, 7, 100, 1_000, 10_000] {
            let mut samples: Vec<u64> = (0..size).map(|_| draw()).collect();
            samples.extend([1, 10_000_000]);
            let mut hist = LatencyHistogram::default();
            samples.iter().for_each(|&s| hist.record(s));
            samples.sort_unstable();
            for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
                let exact = samples[rank - 1];
                let got = hist.quantile_micros(q);
                assert!(
                    exact <= got && got as f64 <= exact as f64 * 9.0 / 8.0,
                    "q {q} of {} samples: {got} µs against exact {exact} µs",
                    samples.len()
                );
            }
        }
    }
}
