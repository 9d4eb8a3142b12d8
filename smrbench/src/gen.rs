//! The benchmark's own input generator: a seeded PRNG, uniform and
//! Zipfian key samplers, and the per-worker operation stream.
//!
//! Everything a run feeds the structures is derived here from `--seed`,
//! so no change to the library crates can alter the inputs. Each stream
//! (prefill, worker `i`, stalled reader, probes) gets its own PRNG seeded
//! from the run seed and a fixed stream number.

/// SplitMix64: small, fast, and every seed (including 0) is usable.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        // Decorrelate neighbouring streams before the first draw.
        r.next_u64();
        r
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (Lemire's multiply-shift; bias below 2^-32 for
    /// the ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Stream numbers: fixed, so a seed names the same inputs forever.
pub const PREFILL_STREAM: u64 = 0;
/// Stream of the stalled reader's warm-up keys.
pub const READER_STREAM: u64 = 1_000;
/// Stream of the hop-probe keys.
pub const PROBE_STREAM: u64 = 2_000;
/// Stream of the Zipfian rank-to-key permutation.
pub const PERM_STREAM: u64 = 3_000;

/// Worker `i`'s operation stream number.
pub fn worker_stream(i: usize) -> u64 {
    1 + i as u64
}

/// Key popularity over `[0, range)`.
#[derive(Debug, Clone)]
pub enum Keys {
    /// Every key equally likely.
    Uniform { range: u64 },
    /// Zipfian ranks mapped through a seeded permutation, so the hot keys
    /// are scattered over the range instead of clustered at 0.
    Zipf { cdf: Vec<u64>, perm: Vec<u64> },
}

impl Keys {
    /// Uniform keys over `[0, range)`.
    pub fn uniform(range: u64) -> Keys {
        Keys::Uniform { range }
    }

    /// Zipfian(`theta`) keys over `[0, range)`; the rank permutation is
    /// drawn from `seed`.
    pub fn zipf(range: u64, theta: f64, seed: u64) -> Keys {
        let n = range as usize;
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        // Thresholds on a 2^53 scale; the last is pinned to the top so
        // every draw lands on some rank.
        let scale = (1u64 << 53) as f64;
        let mut cdf: Vec<u64> = weights
            .iter()
            .map(|w| {
                acc += w;
                (acc / total * scale) as u64
            })
            .collect();
        *cdf.last_mut().expect("range > 0") = 1 << 53;
        let mut perm: Vec<u64> = (0..range).collect();
        let mut rng = Rng::stream(seed, PERM_STREAM);
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Keys::Zipf { cdf, perm }
    }

    /// Draws one key.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match self {
            Keys::Uniform { range } => rng.below(*range),
            Keys::Zipf { cdf, perm } => {
                let u = rng.next_u64() >> 11;
                perm[cdf.partition_point(|&c| c <= u)]
            }
        }
    }
}

/// One set operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Membership test.
    Contains,
    /// Insert.
    Insert,
    /// Remove.
    Remove,
}

/// Operation mix in percent; removes take the remainder.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Percent of `contains`.
    pub contains: u64,
    /// Percent of `insert`.
    pub insert: u64,
}

/// A worker's endless, seeded operation sequence.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    mix: Mix,
}

impl OpStream {
    /// Worker `worker`'s stream under run seed `seed`.
    pub fn new(seed: u64, worker: usize, mix: Mix) -> OpStream {
        OpStream {
            rng: Rng::stream(seed, worker_stream(worker)),
            mix,
        }
    }

    /// The next operation and its key.
    #[inline]
    pub fn next(&mut self, keys: &Keys) -> (Op, u64) {
        let roll = self.rng.below(100);
        let op = if roll < self.mix.contains {
            Op::Contains
        } else if roll < self.mix.contains + self.mix.insert {
            Op::Insert
        } else {
            Op::Remove
        };
        (op, keys.sample(&mut self.rng))
    }
}

/// Levels of the balanced skeleton the prefill inserts first.
pub const SKELETON_LEVELS: u32 = 10;

/// The prefill: `count` distinct keys drawn uniformly from `[0, range)`,
/// in insertion order.
///
/// The order starts with a balanced skeleton of the drawn set (its
/// median, then the medians of each half, for [`SKELETON_LEVELS`] levels:
/// up to 1 023 keys), followed by the rest in the order drawn. The tree does not
/// rebalance, so without the skeleton the first few keys fix the shape of
/// its top levels, and with it MP's index layout: a stalled reader's
/// retained waste then differed about 2× between seeds, a difference that
/// comes from the seed and not from the code under test. Below the
/// skeleton the tree stays a random-order tree.
pub fn prefill_keys(seed: u64, range: u64, count: usize) -> Vec<u64> {
    assert!(count as u64 <= range, "prefill larger than the key range");
    let mut rng = Rng::stream(seed, PREFILL_STREAM);
    let mut seen = vec![false; range as usize];
    let mut drawn = Vec::with_capacity(count);
    while drawn.len() < count {
        let k = rng.below(range);
        if !std::mem::replace(&mut seen[k as usize], true) {
            drawn.push(k);
        }
    }
    let mut sorted = drawn.clone();
    sorted.sort_unstable();
    // From here on `seen` marks the drawn keys not yet placed in `keys`.
    let mut keys = Vec::with_capacity(count);
    // Half-open index ranges of `sorted` still to split, one level at a time.
    let mut level = vec![(0, sorted.len())];
    for _ in 0..SKELETON_LEVELS {
        let mut next = Vec::with_capacity(2 * level.len());
        for (lo, hi) in level.into_iter().filter(|(lo, hi)| lo < hi) {
            let mid = (lo + hi) / 2;
            keys.push(sorted[mid]);
            seen[sorted[mid] as usize] = false;
            next.extend([(lo, mid), (mid + 1, hi)]);
        }
        level = next;
    }
    keys.extend(drawn.into_iter().filter(|&k| seen[k as usize]));
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, worker: usize, keys: &Keys, n: usize) -> Vec<(Op, u64)> {
        let mut s = OpStream::new(
            seed,
            worker,
            Mix {
                contains: 50,
                insert: 25,
            },
        );
        (0..n).map(|_| s.next(keys)).collect()
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let uniform: fn(u64) -> Keys = |_| Keys::uniform(8192);
        let zipf: fn(u64) -> Keys = |s| Keys::zipf(8192, 0.99, s);
        for keys_of in [uniform, zipf] {
            let (a, b) = (keys_of(7), keys_of(7));
            assert_eq!(prefill_keys(7, 8192, 4096), prefill_keys(7, 8192, 4096));
            for w in 0..2 {
                assert_eq!(ops(7, w, &a, 10_000), ops(7, w, &b, 10_000), "worker {w}");
            }
            let c = keys_of(8);
            assert_ne!(prefill_keys(7, 8192, 4096), prefill_keys(8, 8192, 4096));
            for w in 0..2 {
                assert_ne!(ops(7, w, &a, 10_000), ops(8, w, &c, 10_000), "worker {w}");
            }
            // Workers of one run draw different sequences.
            assert_ne!(ops(7, 0, &a, 1_000), ops(7, 1, &a, 1_000));
        }
    }

    #[test]
    fn prefill_is_distinct_in_range_and_starts_with_the_skeleton() {
        let keys = prefill_keys(3, 4096, 2048);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 2048);
        assert!(sorted.iter().all(|&k| k < 4096));
        assert_eq!(keys[0], sorted[1024], "the median goes in first");
        assert_eq!(
            keys[1..3],
            [sorted[512], sorted[1536]],
            "then the quartiles"
        );
        // A tiny prefill is all skeleton.
        assert_eq!(prefill_keys(1, 8, 3).len(), 3);
    }

    #[test]
    fn mix_and_skew_match_their_parameters() {
        let keys = Keys::zipf(8192, 0.99, 1);
        let mut s = OpStream::new(
            1,
            0,
            Mix {
                contains: 50,
                insert: 25,
            },
        );
        let mut counts = [0u64; 3];
        let mut hot = 0u64;
        let top = match &keys {
            Keys::Zipf { perm, .. } => perm[0],
            Keys::Uniform { .. } => unreachable!(),
        };
        let n = 200_000;
        for _ in 0..n {
            let (op, k) = s.next(&keys);
            counts[op as usize] += 1;
            hot += (k == top) as u64;
        }
        let pct = |c: u64| c as f64 * 100.0 / n as f64;
        assert!((pct(counts[0]) - 50.0).abs() < 1.0);
        assert!((pct(counts[1]) - 25.0).abs() < 1.0);
        // Rank 1 of Zipf(0.99) over 8192 keys carries about 10% of draws.
        assert!(
            (8.0..12.0).contains(&pct(hot)),
            "hottest key {:.2}%",
            pct(hot)
        );
    }
}
