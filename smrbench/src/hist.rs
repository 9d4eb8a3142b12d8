//! Log-linear latency histogram (HdrHistogram-style), owned by the
//! benchmark.
//!
//! Values below 64 get one bucket each; above, every power-of-two octave
//! is split into 64 equal sub-buckets. A quantile is interpolated
//! linearly by rank inside the bucket holding the sample of that rank, so
//! it stays within [`REL_ERROR`] of the exact sorted sample (and does not
//! snap to the same bucket value run after run). Recording is one
//! `leading_zeros` and an array increment; histograms are per thread and
//! merge by addition.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Largest relative distance between a reported quantile and the exact
/// sample of the same rank: one sub-bucket, `1 / 64` of the octave.
pub const REL_ERROR: f64 = 1.0 / SUB as f64;

/// A mergeable log-linear histogram of `u64` values (nanoseconds here).
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist").field("count", &self.total).finish()
    }
}

#[inline]
fn index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
        ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }
}

/// Smallest value and width of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift, 1 << shift)
}

impl Hist {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The value at quantile `q` in `[0, 1]`: the sample of rank
    /// `ceil(q · n)` (at least 1), to within [`REL_ERROR`]. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut before = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if before + c >= rank {
                // The rank's place among this bucket's samples, in (0, 1),
                // spread over the bucket's integer values.
                let (lo, width) = bounds(i);
                let place = ((rank - before) as f64 - 0.5) / c as f64;
                return Some(lo as f64 + (width - 1) as f64 * place);
            }
            before += c;
        }
        unreachable!("rank {rank} exceeds the total {}", self.total)
    }

    /// The highest of the percentiles 50, 90, 99, 99.9, 99.99 and 99.999
    /// that still has at least ten samples above its rank, with its value.
    pub fn deepest_tail(&self) -> Option<(f64, f64)> {
        let n = self.total as u128;
        // Percentiles in parts per 100 000, so the rank is exact.
        [50_000u128, 90_000, 99_000, 99_900, 99_990, 99_999]
            .into_iter()
            .take_while(|&p| n - (n * p).div_ceil(100_000) >= 10)
            .last()
            .map(|p| {
                (
                    p as f64 / 1_000.0,
                    self.quantile(p as f64 / 100_000.0).expect("non-empty"),
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn a_single_value_reads_back_within_the_bound() {
        for v in (0..100_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let mut h = Hist::default();
            h.record(v);
            let got = h.quantile(0.5).unwrap();
            assert!(
                (got - v as f64).abs() <= v as f64 * REL_ERROR,
                "{v} -> {got}"
            );
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_stay_within_the_stated_bound_of_exact_sorted_samples() {
        let mut rng = Rng::stream(42, 0);
        for shape in 0..3 {
            let mut h = Hist::default();
            let mut exact = Vec::new();
            for _ in 0..50_000 {
                // Uniform, long-tailed (log-uniform) and a tight cluster.
                let v = match shape {
                    0 => rng.below(1_000_000),
                    1 => 1u64 << rng.below(30) | rng.below(1 << 10),
                    _ => 250 + rng.below(20),
                };
                h.record(v);
                exact.push(v);
            }
            exact.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
                let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
                let want = exact[rank - 1] as f64;
                let got = h.quantile(q).unwrap();
                assert!(
                    (got - want).abs() <= want * REL_ERROR,
                    "shape {shape} q {q}: got {got}, exact {want}"
                );
            }
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::default(), Hist::default(), Hist::default());
        for v in 0..10_000u64 {
            let v = v * v;
            if v % 3 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn deepest_tail_needs_ten_samples_beyond_it() {
        let mut h = Hist::default();
        assert_eq!(h.deepest_tail(), None);
        for v in 0..10_000 {
            h.record(v);
        }
        assert_eq!(h.deepest_tail().unwrap().0, 99.9);
    }
}
